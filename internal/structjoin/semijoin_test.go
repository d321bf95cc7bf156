package structjoin

import (
	"testing"

	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

var semiJoinDocs = []workload.DeepConfig{
	{Nodes: 2000, Seed: 1},
	{Nodes: 6000, MaxDepth: 30, Fanout: 2, Seed: 2},
	{Nodes: 6000, MaxDepth: 5, Fanout: 20, Seed: 3},
	{Nodes: 6000, Names: []string{"a", "a", "a", "b", "z"}, Seed: 4},
}

// TestSemiJoinMatchesPairProjection: the semi-join keeps exactly the
// distinct ancestors of the stack-tree pair output, for both edge kinds and
// for self-joins, where containment must stay strict.
func TestSemiJoinMatchesPairProjection(t *testing.T) {
	names := []string{"a", "b", "c", "z"}
	for di, cfg := range semiJoinDocs {
		idx := BuildIndex(workload.Deep(cfg))
		for _, an := range names {
			for _, dn := range names {
				anc, desc := idx.Elements(xdm.LocalName(an)), idx.Elements(xdm.LocalName(dn))
				for _, child := range []bool{false, true} {
					want := DistinctAncestors(StackTreeDesc(anc, desc, child))
					if got := SemiJoin(anc, desc, child); !sameList(got, want) {
						t.Errorf("doc %d %s→%s child=%v: semi-join %d postings, pair projection %d",
							di, an, dn, child, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestSemiJoinDegenerate(t *testing.T) {
	idx := BuildIndex(workload.Deep(workload.DeepConfig{Nodes: 500, Seed: 5}))
	a := idx.Elements(xdm.LocalName("a"))
	for _, child := range []bool{false, true} {
		if got := SemiJoin(nil, a, child); got != nil {
			t.Errorf("empty ancestors: %d postings", len(got))
		}
		if got := SemiJoin(a, nil, child); got != nil {
			t.Errorf("empty descendants: %d postings", len(got))
		}
	}
}

// navSatisfies is the reference semantics of an existential predicate
// pattern: node id matches p's name and, for every child pattern, has a
// child (child edge) or descendant that satisfies it.
func navSatisfies(d *store.Document, id int32, p *TwigNode) bool {
	if d.Kind(id) != xdm.ElementNode || !d.NameOf(id).Equal(p.Name) {
		return false
	}
	for _, c := range p.Children {
		found := false
		if c.ChildEdge {
			for ch := d.FirstChildID(id); ch >= 0 && !found; ch = d.NextSiblingID(ch) {
				found = navSatisfies(d, ch, c)
			}
		} else {
			for ch := id + 1; ch <= d.EndID(id) && !found; ch++ {
				found = navSatisfies(d, ch, c)
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// childEdges turns every edge of the pattern into a child edge: the
// compact syntax reads "a[b]" as a descendant branch, the XPath predicate
// a[b] is a child one.
func childEdges(n *TwigNode) *TwigNode {
	for _, c := range n.Children {
		c.ChildEdge = true
		childEdges(c)
	}
	return n
}

// TestSatisfyingMatchesNavigation: bottom-up semi-join reduction keeps
// exactly the postings that root an existential match of every predicate,
// including nested predicates, several predicates on one step and
// self-named patterns, with descendant and child edges.
func TestSatisfyingMatchesNavigation(t *testing.T) {
	patterns := []string{
		"a[b]", "a[b/c]", "a[b//c]", "a[b[c]]", "a[b][c]",
		"a[a]", "a[a/a]", "b[a[b]//c]", "a[z]", "a[b]//c",
	}
	for di, cfg := range semiJoinDocs[:3] {
		doc := workload.Deep(cfg)
		idx := BuildIndex(doc)
		for _, pat := range patterns {
			for _, tw := range []*TwigNode{mustTwig(t, pat), childEdges(mustTwig(t, pat))} {
				var want List
				for _, p := range idx.Elements(tw.Name) {
					if navSatisfies(doc, p.ID, tw) {
						want = append(want, p)
					}
				}
				if got := Satisfying(idx.Elements(tw.Name), tw.Children, idx); !sameList(got, want) {
					t.Errorf("doc %d %s (child edges %v): semi-join reduction %d postings, navigation %d",
						di, pat, tw.Children[0].ChildEdge, len(got), len(want))
				}
			}
		}
	}
}

// TestBranchingLeafOutputTrap pins why the engine does not take a
// branching TwigStack's leaf output for a/b-edged branches: on both
// documents no a has both a child b and a descendant d, yet the d is
// output because its own a//d path matches. Reducing the branch by
// semi-join first and running the linear a//d gives the exact answer, 0.
func TestBranchingLeafOutputTrap(t *testing.T) {
	for _, src := range []string{
		`<r><a><x><b/></x><d/></a></r>`,
		`<r><a><d/><a><b/></a></a></r>`,
	} {
		idx := BuildIndex(mustParse(t, src))
		branch := mustTwig(t, "a[b]//d")
		branch.Children[0].ChildEdge = true
		if got := leafPostings(branch, idx); len(got) != 1 {
			t.Errorf("%s: branching leaf output %d postings; the documented trap outputs 1", src, len(got))
		}
		linear := mustTwig(t, "a//d")
		streams := linear.Streams(idx)
		streams[0] = Satisfying(streams[0], branch.Children[:1], idx)
		if _, got := TwigStack(linear, streams); len(got) != 0 {
			t.Errorf("%s: reduced linear join output %d postings, want 0", src, len(got))
		}
	}
}
