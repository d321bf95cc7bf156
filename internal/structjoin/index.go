// Package structjoin implements the structural-join machinery of the
// XML-database era the paper surveys ("Structural Joins: A Primitive for
// Efficient XML Query Pattern Matching", "Holistic twig joins"): an
// element/attribute name index over region labels, the TwigStack holistic
// twig join, and the stack-tree binary join, naive tree-merge and
// navigation baselines it is compared with. All algorithms work on the
// store's (start, end, level) region labels (see internal/labeling), so
// ancestor/descendant tests are integer comparisons.
package structjoin

import (
	"sort"

	"xqgo/internal/labeling"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// Posting is one labeled node in an index list.
type Posting struct {
	Region labeling.Region
	ID     int32
}

// List is a name's posting list, sorted by document order (Start).
type List []Posting

// Index maps element/attribute names to posting lists for one document —
// the access path structural joins assume ("do NOT assume the data is
// pre-materialized" is the navigation engine's job; the index is the
// join engine's).
type Index struct {
	Doc      *store.Document
	elements map[string]List
	attrs    map[string]List
}

// BuildIndex scans a document once and builds posting lists for every
// element and attribute name.
func BuildIndex(d *store.Document) *Index {
	idx := &Index{
		Doc:      d,
		elements: make(map[string]List),
		attrs:    make(map[string]List),
	}
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		switch d.Kind(id) {
		case xdm.ElementNode:
			key := d.NameOf(id).Clark()
			idx.elements[key] = append(idx.elements[key], Posting{Region: d.Region(id), ID: id})
		case xdm.AttributeNode:
			key := d.NameOf(id).Clark()
			idx.attrs[key] = append(idx.attrs[key], Posting{Region: d.Region(id), ID: id})
		}
	}
	// Pre-order scan yields document order already; keep the invariant
	// explicit for robustness.
	for _, l := range idx.elements {
		sortList(l)
	}
	for _, l := range idx.attrs {
		sortList(l)
	}
	return idx
}

func sortList(l List) {
	sort.Slice(l, func(i, j int) bool { return l[i].Region.Start < l[j].Region.Start })
}

// Elements returns the posting list for an element name (nil if absent).
func (x *Index) Elements(name xdm.QName) List { return x.elements[name.Clark()] }

// Attributes returns the posting list for an attribute name.
func (x *Index) Attributes(name xdm.QName) List { return x.attrs[name.Clark()] }

// ElementNames returns the distinct element names (diagnostics/tests).
func (x *Index) ElementNames() int { return len(x.elements) }

// Pair is one (ancestor, descendant) result of a binary structural join.
type Pair struct {
	Ancestor   Posting
	Descendant Posting
}
