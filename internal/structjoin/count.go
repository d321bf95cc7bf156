package structjoin

import (
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// NavTwigCount counts the full twig embeddings (match tuples) of a pattern
// by direct tree navigation with memoization — the ground truth the join
// algorithms are validated against in tests, and the "navigation engine"
// data point of experiment E6.
func NavTwigCount(root *TwigNode, d *store.Document) int64 {
	type key struct {
		q  *TwigNode
		id int32
	}
	memo := map[key]int64{}
	var embeddings func(q *TwigNode, id int32) int64
	embeddings = func(q *TwigNode, id int32) int64 {
		if v, ok := memo[key{q, id}]; ok {
			return v
		}
		total := int64(1)
		for _, c := range q.Children {
			var sum int64
			if c.ChildEdge {
				for ch := d.FirstChildID(id); ch >= 0; ch = d.NextSiblingID(ch) {
					if d.Kind(ch) == xdm.ElementNode && d.NameOf(ch).Equal(c.Name) {
						sum += embeddings(c, ch)
					}
				}
			} else {
				end := d.EndID(id)
				for ch := id + 1; ch <= end; ch++ {
					if d.Kind(ch) == xdm.ElementNode && d.NameOf(ch).Equal(c.Name) {
						sum += embeddings(c, ch)
					}
				}
			}
			total *= sum
			if total == 0 {
				break
			}
		}
		memo[key{q, id}] = total
		return total
	}

	var grand int64
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		if d.Kind(id) == xdm.ElementNode && d.NameOf(id).Equal(root.Name) {
			grand += embeddings(root, id)
		}
	}
	return grand
}
