package structjoin

import (
	"fmt"
	"math"
	"strings"

	"xqgo/internal/labeling"
	"xqgo/internal/xdm"
)

// Twig patterns and the holistic twig join (TwigStack, Bruno/Koudas/
// Srivastava), the one holistic join: a linear chain is a one-branch twig,
// so the runtime's path chains, Index.CountTwig and experiment E6 all run
// it. The holistic property: intermediate results are root-to-leaf path
// solutions that are guaranteed to extend to a full match for
// ancestor/descendant edges, instead of the possibly-huge pairwise outputs
// of a binary-join plan — exactly the effect experiment E6 measures.

// TwigNode is one node of a twig pattern.
type TwigNode struct {
	Name xdm.QName
	// ChildEdge: the edge to the parent is parent/child rather than
	// ancestor/descendant.
	ChildEdge bool
	Children  []*TwigNode
}

// Path builds a linear twig a//b//c... (ancestor/descendant edges).
func Path(names ...string) *TwigNode {
	var root, cur *TwigNode
	for _, n := range names {
		node := &TwigNode{Name: xdm.LocalName(n)}
		if root == nil {
			root = node
		} else {
			cur.Children = append(cur.Children, node)
		}
		cur = node
	}
	return root
}

// ParseTwig parses a compact twig syntax: "a//b", "a/b" (child edge),
// branches in brackets: "a[b//c]//d".
func ParseTwig(s string) (*TwigNode, error) {
	p := &twigParser{src: s}
	n, err := p.node(false)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("twig: trailing input at %d in %q", p.pos, s)
	}
	return n, nil
}

type twigParser struct {
	src string
	pos int
}

func (p *twigParser) node(childEdge bool) (*TwigNode, error) {
	start := p.pos
	for p.pos < len(p.src) && (isTwigNameChar(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("twig: expected a name at %d in %q", p.pos, p.src)
	}
	n := &TwigNode{Name: xdm.LocalName(p.src[start:p.pos]), ChildEdge: childEdge}
	for p.pos < len(p.src) {
		switch {
		case p.src[p.pos] == '[':
			p.pos++
			child, err := p.branchContent()
			if err != nil {
				return nil, err
			}
			if p.pos >= len(p.src) || p.src[p.pos] != ']' {
				return nil, fmt.Errorf("twig: missing ] in %q", p.src)
			}
			p.pos++
			n.Children = append(n.Children, child)
		case strings.HasPrefix(p.src[p.pos:], "//"):
			p.pos += 2
			child, err := p.node(false)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			return n, nil
		case p.src[p.pos] == '/':
			p.pos++
			child, err := p.node(true)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			return n, nil
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *twigParser) branchContent() (*TwigNode, error) {
	if strings.HasPrefix(p.src[p.pos:], "//") {
		p.pos += 2
		return p.node(false)
	}
	return p.node(false)
}

func isTwigNameChar(c byte) bool {
	return c == '-' || c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// String renders the twig pattern.
func (n *TwigNode) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *TwigNode) render(b *strings.Builder) {
	b.WriteString(n.Name.Local)
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		if !last {
			b.WriteByte('[')
		} else if c.ChildEdge {
			b.WriteByte('/')
		} else {
			b.WriteString("//")
		}
		c.render(b)
		if !last {
			b.WriteByte(']')
		}
	}
}

// Streams returns the index posting list of every pattern node, in the
// pre-order (root first) TwigStack expects.
func (n *TwigNode) Streams(idx *Index) []List {
	out := []List{idx.Elements(n.Name)}
	for _, c := range n.Children {
		out = append(out, c.Streams(idx)...)
	}
	return out
}

// Satisfying returns the postings of l that satisfy every existential
// predicate pattern in preds: for each pattern, a child (ChildEdge) or
// descendant matching its root that itself satisfies the root's Children
// as predicates. Patterns reduce bottom-up, one SemiJoin per pattern edge,
// so the cost is linear in the posting lists read. With no patterns it
// returns l itself; it never modifies l or the index lists.
func Satisfying(l List, preds []*TwigNode, idx *Index) List {
	for _, p := range preds {
		if len(l) == 0 {
			return nil
		}
		l = SemiJoin(l, Satisfying(idx.Elements(p.Name), p.Children, idx), p.ChildEdge)
	}
	return l
}

// TwigStats reports the work and intermediate-result volume of a twig join.
type TwigStats struct {
	// PathSolutions is the number of root-to-leaf path solutions produced
	// (the holistic algorithms' total intermediate size), summed over the
	// leaves of a branching pattern and saturating at math.MaxInt64. It
	// equals the embedding count of linear patterns only.
	PathSolutions int64
	// Pushes and Advances count stack pushes and stream advances.
	Pushes   int64
	Advances int64
}

const infStart = int64(1)<<62 - 1

// twigNode is one pattern node's state during one TwigStack call. Keeping
// it off the shared TwigNode makes concurrent joins over one pattern safe.
type twigNode struct {
	stream List
	pos    int
	stack  []twigEntry // open matches: a chain of nested regions
	parent int         // pre-order index; -1 for the root
	kids   []int
	child  bool // parent/child edge to the parent
}

// twigEntry is one open match. count is the number of root-to-this partial
// solutions it completes; cum sums count over it and every entry beneath
// it. Both saturate.
type twigEntry struct {
	post       Posting
	count, cum int64
}

// head returns the region of the stream's next posting; an exhausted
// stream reads as one that starts and ends after everything.
func (q *twigNode) head() *labeling.Region {
	if q.pos < len(q.stream) {
		return &q.stream[q.pos].Region
	}
	return &eofRegion
}

var eofRegion = labeling.Region{Start: infStart, End: infStart}

// TwigStack runs the holistic twig join (Bruno/Koudas/Srivastava) of the
// pattern rooted at root. streams must hold one Start-sorted posting list
// per pattern node, in pre-order (see Streams); lists are only read, so
// concurrent calls may share the pattern and the lists. The root's
// ChildEdge is ignored: callers that anchor the root pre-filter its list.
//
// It returns the work statistics and the distinct postings of the output
// leaf (the last leaf in pre-order, the tail of the pattern's main path)
// that complete at least one root-to-leaf path solution, in document
// order. The leaf output is exact for linear patterns only: for a linear
// chain it is exactly the node set the path expression selects. On a
// branching pattern getNext checks containment, not that every branch
// completes, and a leaf posting is output as soon as its own root-to-leaf
// path matches, without waiting for the other branches — so on
// <r><a><x><b/></x><d/></a></r> the pattern a//d with a child-edge branch
// to b (XPath //a[b]//d) outputs the d although the a has no child b.
// Exact branching answers reduce the branches first (Satisfying) and run
// the linear main path over the reduced lists.
// Likewise PathSolutions of a branching pattern sums the root-to-leaf path
// solutions over its leaves; it is not a count of embeddings.
func TwigStack(root *TwigNode, streams []List) (TwigStats, List) {
	if root == nil {
		return TwigStats{}, nil
	}
	var t twigRun
	outLeaf := 0
	var walk func(q *TwigNode, parent int)
	walk = func(q *TwigNode, parent int) {
		i := len(t.n)
		t.n = append(t.n, twigNode{stream: streams[i], parent: parent, child: q.ChildEdge})
		if parent >= 0 {
			t.n[parent].kids = append(t.n[parent].kids, i)
		}
		if len(q.Children) == 0 {
			outLeaf = i
		}
		for _, c := range q.Children {
			walk(c, i)
		}
	}
	walk(root, -1)
	var out List
	for {
		// getNext returns an exhausted stream once no leaf can match.
		qi := t.getNext(0)
		q := &t.n[qi]
		if q.pos >= len(q.stream) {
			break
		}
		cur := q.stream[q.pos]
		cnt := int64(1)
		if q.parent >= 0 {
			p := &t.n[q.parent]
			p.clean(cur.Region.Start)
			cnt = p.solutions(cur, q.child)
		}
		q.clean(cur.Region.Start)
		if cnt > 0 {
			t.stats.Pushes++
			if len(q.kids) > 0 {
				cum := cnt
				if len(q.stack) > 0 {
					cum = satAdd(cum, q.stack[len(q.stack)-1].cum)
				}
				q.stack = append(q.stack, twigEntry{post: cur, count: cnt, cum: cum})
			} else {
				// Leaves only complete solutions; they are never stacked.
				t.stats.PathSolutions = satAdd(t.stats.PathSolutions, cnt)
				if qi == outLeaf {
					// Each leaf posting is read once, in Start order, so
					// the output is distinct and in document order.
					out = append(out, cur)
				}
			}
		}
		q.pos++
		t.stats.Advances++
	}
	return t.stats, out
}

// twigRun is the state of one TwigStack call, indexed by pre-order number.
type twigRun struct {
	n     []twigNode
	stats TwigStats
}

// getNext returns the pattern node whose stream head is processed next:
// a node whose head starts before every child subtree's next candidate,
// after skipping heads that end before the farthest child candidate (they
// can contain no future match). Ties go to the child, so the same posting
// is read as a descendant before it is stacked as an ancestor of itself —
// which keeps containment strict on self-chains such as a//a.
func (t *twigRun) getNext(qi int) int {
	q := &t.n[qi]
	if len(q.kids) == 0 {
		return qi
	}
	nmin, minStart, maxStart := -1, infStart, int64(-1)
	for _, ci := range q.kids {
		if ni := t.getNext(ci); ni != ci {
			return ni
		}
		s := t.n[ci].head().Start
		if nmin < 0 || s < minStart {
			nmin, minStart = ci, s
		}
		maxStart = max(maxStart, s)
	}
	for q.head().End < maxStart {
		q.pos++
		t.stats.Advances++
	}
	if q.head().Start < minStart {
		return qi
	}
	return nmin
}

// clean pops the entries that close before nextStart. An entry is pushed
// only after the entries that closed before it are popped, so the survivor
// on top contains it and the stack stays a chain of nested regions: after
// clean(cur.Start) every remaining entry contains cur.
func (q *twigNode) clean(nextStart int64) {
	for len(q.stack) > 0 && q.stack[len(q.stack)-1].post.Region.End < nextStart {
		q.stack = q.stack[:len(q.stack)-1]
	}
}

// solutions returns the number of root-to-q partial solutions that cur, a
// child of q in the pattern, extends; q's stack must be cleaned to cur. A
// descendant edge extends all of them, a child edge only those ending at
// the one entry a level above cur.
func (q *twigNode) solutions(cur Posting, childEdge bool) int64 {
	s := q.stack
	if !childEdge {
		if len(s) == 0 {
			return 0
		}
		return s[len(s)-1].cum
	}
	for i := len(s) - 1; i >= 0 && s[i].post.Region.Level >= cur.Region.Level-1; i-- {
		if s[i].post.Region.Level == cur.Region.Level-1 {
			return s[i].count
		}
	}
	return 0
}

// satAdd adds two non-negative counts, saturating at math.MaxInt64.
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// BinaryPlanStats decomposes the twig into binary structural joins (one per
// edge, evaluated independently on the name posting lists) and reports the
// total intermediate pairs a binary-join plan materializes — the comparator
// of E6.
func BinaryPlanStats(root *TwigNode, idx *Index) (totalPairs int64) {
	var walk func(t *TwigNode)
	walk = func(t *TwigNode) {
		for _, c := range t.Children {
			pairs := StackTreeDesc(idx.Elements(t.Name), idx.Elements(c.Name), c.ChildEdge)
			totalPairs += int64(len(pairs))
			walk(c)
		}
	}
	walk(root)
	return totalPairs
}
