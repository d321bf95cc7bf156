package xqgo

import (
	"xqgo/internal/structjoin"
	"xqgo/internal/xdm"
)

// Index is a structural-join index over one document: element/attribute
// name posting lists with region labels. It answers tree-pattern (twig)
// queries with the stack-based join algorithms instead of navigation —
// the "Structural Joins" / "Holistic twig joins" machinery the paper's
// evaluation-algorithms survey covers.
type Index struct {
	idx *structjoin.Index
	doc *Document
}

// BuildIndex scans the document once and builds its name index.
func (d *Document) BuildIndex() *Index {
	return &Index{idx: structjoin.BuildIndex(d.doc), doc: d}
}

// JoinAlgorithm selects a binary structural-join implementation.
type JoinAlgorithm int

const (
	// StackTree is the stack-based merge join (Stack-Tree-Desc): one pass
	// over both posting lists. Default.
	StackTree JoinAlgorithm = iota
	// TreeMerge is the mergesort-style baseline without a stack.
	TreeMerge
	// Navigation evaluates the join by walking the tree (no index).
	Navigation
)

// Descendants returns the distinct descendant elements named desc that have
// an ancestor element named anc, in document order.
func (x *Index) Descendants(anc, desc string, alg JoinAlgorithm) []Node {
	return x.join(anc, desc, false, alg)
}

// Children returns the distinct child elements named child whose parent
// element is named parent, in document order.
func (x *Index) Children(parent, child string, alg JoinAlgorithm) []Node {
	return x.join(parent, child, true, alg)
}

func (x *Index) join(anc, desc string, parentOnly bool, alg JoinAlgorithm) []Node {
	var pairs []structjoin.Pair
	switch alg {
	case TreeMerge:
		pairs = structjoin.TreeMergeDesc(
			x.idx.Elements(xdm.LocalName(anc)), x.idx.Elements(xdm.LocalName(desc)), parentOnly)
	case Navigation:
		pairs = structjoin.NavigationDesc(x.doc.doc,
			xdm.LocalName(anc), xdm.LocalName(desc), parentOnly)
	default:
		pairs = structjoin.StackTreeDesc(
			x.idx.Elements(xdm.LocalName(anc)), x.idx.Elements(xdm.LocalName(desc)), parentOnly)
	}
	postings := structjoin.DistinctDescendants(pairs)
	out := make([]Node, len(postings))
	for i, p := range postings {
		out[i] = x.doc.doc.Node(p.ID)
	}
	return out
}

// TwigStats reports the work a holistic twig join performed.
type TwigStats = structjoin.TwigStats

// CountTwig runs the holistic TwigStack join for a twig pattern in the
// compact syntax "a[b//c]//d" and returns its statistics. For a linear
// pattern the path-solution count equals the number of embeddings; for a
// branching pattern it is the sum of root-to-leaf path solutions over the
// pattern's leaves, not an embedding count (CountTwigNavigation counts
// those).
func (x *Index) CountTwig(pattern string) (TwigStats, error) {
	tw, err := structjoin.ParseTwig(pattern)
	if err != nil {
		return TwigStats{}, err
	}
	st, _ := structjoin.TwigStack(tw, tw.Streams(x.idx))
	return st, nil
}

// CountTwigNavigation counts full twig embeddings by tree navigation (the
// index-free ground truth).
func (x *Index) CountTwigNavigation(pattern string) (int64, error) {
	tw, err := structjoin.ParseTwig(pattern)
	if err != nil {
		return 0, err
	}
	return structjoin.NavTwigCount(tw, x.doc.doc), nil
}
