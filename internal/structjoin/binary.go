package structjoin

import (
	"xqgo/internal/store"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Binary structural joins: given the posting lists of a candidate-ancestor
// name A and candidate-descendant name D, produce the (a, d) pairs with a
// an ancestor (or parent) of d.

// StackTreeDesc is the Stack-Tree-Desc algorithm (Al-Khalifa et al.): one
// synchronized pass over both lists with a stack of nested ancestors;
// output is sorted by descendant. Time O(|A| + |D| + |out|).
func StackTreeDesc(ancestors, descendants List, parentOnly bool) []Pair {
	var out []Pair
	var stack []Posting
	a, d := 0, 0
	for a < len(ancestors) || d < len(descendants) {
		// Pop stack entries that end before the next candidate begins.
		next := int64(1<<62 - 1)
		if a < len(ancestors) {
			next = ancestors[a].Region.Start
		}
		if d < len(descendants) && descendants[d].Region.Start < next {
			next = descendants[d].Region.Start
		}
		for len(stack) > 0 && stack[len(stack)-1].Region.End < next {
			stack = stack[:len(stack)-1]
		}
		switch {
		case a < len(ancestors) && (d >= len(descendants) ||
			ancestors[a].Region.Start < descendants[d].Region.Start):
			stack = append(stack, ancestors[a])
			a++
		case d < len(descendants):
			// Emit all stacked ancestors of this descendant.
			if parentOnly {
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].Region.Level+1 == descendants[d].Region.Level &&
						stack[i].Region.Contains(descendants[d].Region) {
						out = append(out, Pair{Ancestor: stack[i], Descendant: descendants[d]})
						break
					}
				}
			} else {
				for i := 0; i < len(stack); i++ {
					if stack[i].Region.Contains(descendants[d].Region) {
						out = append(out, Pair{Ancestor: stack[i], Descendant: descendants[d]})
					}
				}
			}
			d++
		default:
			return out
		}
	}
	return out
}

// SemiJoin returns the postings of ancestors that have a descendant (a
// child, when childEdge) in descendants, in document order. It is
// StackTreeDesc's pass without the pair output: the stack is cleaned from
// the top before every push and every descendant, so it is a chain of
// nested regions and, once cleaned to a descendant, holds only its
// ancestors. A descendant marks the top entry only; a descendant edge
// hands the mark down when the entry is popped (the entry beneath contains
// it), and a child edge needs no hand-down, because only the top can sit a
// level above. So the pass is O(|ancestors| + |descendants|) whatever the
// nesting. Containment is strict: a posting in both lists is never its own
// ancestor. Neither list is modified.
func SemiJoin(ancestors, descendants List, childEdge bool) List {
	keep := make([]bool, len(ancestors))
	var stack []int // indexes into ancestors
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if keep[top] && !childEdge && len(stack) > 0 {
			keep[stack[len(stack)-1]] = true
		}
	}
	clean := func(start int64) {
		for len(stack) > 0 && ancestors[stack[len(stack)-1]].Region.End < start {
			pop()
		}
	}
	a := 0
	for _, d := range descendants {
		for a < len(ancestors) && ancestors[a].Region.Start < d.Region.Start {
			clean(ancestors[a].Region.Start)
			stack = append(stack, a)
			a++
		}
		clean(d.Region.Start)
		if len(stack) == 0 {
			if a == len(ancestors) {
				break
			}
			continue
		}
		top := stack[len(stack)-1]
		if !childEdge || ancestors[top].Region.Level+1 == d.Region.Level {
			keep[top] = true
		}
	}
	for len(stack) > 0 {
		pop()
	}
	var out List
	for i, k := range keep {
		if k {
			out = append(out, ancestors[i])
		}
	}
	return out
}

// TreeMergeDesc is the merge baseline (tree-merge join): for each
// descendant, scan backwards-compatible ancestor candidates without a
// stack. Worst case O(|A| * |D|); the structural-join papers' strawman.
func TreeMergeDesc(ancestors, descendants List, parentOnly bool) []Pair {
	var out []Pair
	a := 0
	for d := 0; d < len(descendants); d++ {
		dr := descendants[d].Region
		// advance a past ancestors that end before this descendant starts
		for a < len(ancestors) && ancestors[a].Region.End < dr.Start {
			a++
		}
		for i := a; i < len(ancestors) && ancestors[i].Region.Start < dr.Start; i++ {
			ar := ancestors[i].Region
			if !ar.Contains(dr) {
				continue
			}
			if parentOnly && ar.Level+1 != dr.Level {
				continue
			}
			out = append(out, Pair{Ancestor: ancestors[i], Descendant: descendants[d]})
		}
	}
	return out
}

// NavigationDesc is the index-free baseline: walk the document tree from
// each candidate ancestor and collect matching descendants by navigation —
// what a query engine without structural indexes does.
func NavigationDesc(d *store.Document, ancestorName, descendantName xdm.QName, parentOnly bool) []Pair {
	test := xtypes.NodeTest{Name: descendantName}
	var out []Pair
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		if d.Kind(id) != xdm.ElementNode || !d.NameOf(id).Equal(ancestorName) {
			continue
		}
		anc := Posting{Region: d.Region(id), ID: id}
		if parentOnly {
			for c := d.FirstChildID(id); c >= 0; c = d.NextSiblingID(c) {
				if d.Kind(c) == xdm.ElementNode && test.MatchesNode(d.Node(c), xdm.ElementNode) {
					out = append(out, Pair{Ancestor: anc, Descendant: Posting{Region: d.Region(c), ID: c}})
				}
			}
			continue
		}
		end := d.EndID(id)
		for c := id + 1; c <= end; c++ {
			if d.Kind(c) == xdm.ElementNode && d.NameOf(c).Equal(descendantName) {
				out = append(out, Pair{Ancestor: anc, Descendant: Posting{Region: d.Region(c), ID: c}})
			}
		}
	}
	return out
}

// DistinctDescendants projects a pair list to its distinct descendants in
// document order (what a path step actually returns). Works for any pair
// order: stack-tree emits descendant-sorted pairs (fast consecutive dedup),
// navigation emits ancestor-sorted pairs (full dedup + sort).
func DistinctDescendants(pairs []Pair) List {
	var out List
	var lastID int32 = -1
	sorted := true
	for _, p := range pairs {
		if p.Descendant.ID == lastID {
			continue
		}
		if len(out) > 0 && p.Descendant.ID < lastID {
			sorted = false
		}
		out = append(out, p.Descendant)
		lastID = p.Descendant.ID
	}
	if sorted {
		return out
	}
	seen := make(map[int32]bool, len(out))
	dedup := out[:0]
	for _, p := range out {
		if !seen[p.ID] {
			seen[p.ID] = true
			dedup = append(dedup, p)
		}
	}
	sortList(dedup)
	return dedup
}

// UpperBoundStart returns the number of leading postings in the
// Start-sorted list l whose Region.Start is <= start. Morsel-partitioned
// joins use it to prune the ancestor list per descendant chunk: an ancestor
// can only contain descendants that start after it, so ancestors starting
// past the chunk's last descendant cannot pair with anything in the chunk.
func UpperBoundStart(l List, start int64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].Region.Start <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DistinctAncestors projects to distinct ancestors (document order).
func DistinctAncestors(pairs []Pair) List {
	seen := map[int32]bool{}
	var out List
	for _, p := range pairs {
		if !seen[p.Ancestor.ID] {
			seen[p.Ancestor.ID] = true
			out = append(out, p.Ancestor)
		}
	}
	sortList(out)
	return out
}
