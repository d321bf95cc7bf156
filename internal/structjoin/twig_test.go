package structjoin

import (
	"sync"
	"testing"

	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
)

func mustParse(t *testing.T, xml string) *store.Document {
	t.Helper()
	doc, err := xmlparse.ParseString(xml, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// chainEdges returns the child-edge flags of a linear pattern, outermost
// first (the root's flag is unused).
func chainEdges(tw *TwigNode) []bool {
	var child []bool
	for q := tw; q != nil; {
		child = append(child, q.ChildEdge)
		if len(q.Children) == 0 {
			break
		}
		q = q.Children[0]
	}
	return child
}

// binaryChain is the reference semantics for a linear chain's output: the
// chain evaluated edge by edge as binary stack-tree joins, projecting
// distinct descendants between steps.
func binaryChain(lists []List, childEdge []bool) List {
	cur := lists[0]
	for i := 1; i < len(lists); i++ {
		cur = DistinctDescendants(StackTreeDesc(cur, lists[i], childEdge[i]))
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// leafPostings runs TwigStack over a pattern's index streams and returns
// its output-leaf postings.
func leafPostings(tw *TwigNode, idx *Index) List {
	_, out := TwigStack(tw, tw.Streams(idx))
	return out
}

func sameList(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainShapes are the linear chains the leaf-output tests cover: child
// edges under descendant edges, and self-chains where strict containment
// must reject a node as its own ancestor.
var chainShapes = []string{
	"a//b", "a//b//c", "a//b/c", "a/b//c", "a//b/c//d",
	"a//a", "a//a/a", "a/a/a", "b/a//b",
}

// TestPathMatchLeafMatchesBinaryPlan: the holistic join's leaf output must
// equal the chained binary plan's postings on every chain shape, across
// generated documents.
func TestPathMatchLeafMatchesBinaryPlan(t *testing.T) {
	docs := []workload.DeepConfig{
		{Nodes: 2000, Seed: 1},
		{Nodes: 6000, MaxDepth: 30, Fanout: 2, Seed: 2},
		{Nodes: 6000, MaxDepth: 5, Fanout: 20, Seed: 3},
		{Nodes: 6000, Names: []string{"a", "a", "a", "b", "z"}, Seed: 4},
	}
	for di, cfg := range docs {
		idx := BuildIndex(workload.Deep(cfg))
		for _, pat := range chainShapes {
			tw := mustTwig(t, pat)
			want := binaryChain(tw.Streams(idx), chainEdges(tw))
			if got := leafPostings(tw, idx); !sameList(got, want) {
				t.Errorf("doc %d %s: twig %d postings != binary %d", di, pat, len(got), len(want))
			}
		}
	}
}

// TestPathMatchLeafClosedSibling pins the stale-stack regression: a closed
// b sibling below a still-open deeper b must not satisfy a child edge for
// a c whose real parent is neither.
//
//	<root>
//	  <a>
//	    <b/>              b1: closed before c starts, at c's parent level
//	    <x><x><b>         b2: open, contains c, but two levels up
//	      <x><c/></x>
//	    </b></x></x>
//	  </a>
//	</root>
func TestPathMatchLeafClosedSibling(t *testing.T) {
	doc := mustParse(t, `<root><a><b/><x><x><b><x><c/></x></b></x></x></a></root>`)
	idx := BuildIndex(doc)
	if got := leafPostings(mustTwig(t, "a//b/c"), idx); len(got) != 0 {
		t.Errorf("a//b/c matched %d leaves; c's parent is x, want 0", len(got))
	}
	if got := leafPostings(mustTwig(t, "a//b//c"), idx); len(got) != 1 {
		t.Errorf("a//b//c matched %d leaves, want 1", len(got))
	}
}

func TestPathMatchLeafDegenerate(t *testing.T) {
	idx := BuildIndex(workload.Deep(workload.DeepConfig{Nodes: 500, Seed: 5}))
	a := idx.Elements(xdm.LocalName("a"))
	if st, got := TwigStack(nil, nil); got != nil || st != (TwigStats{}) {
		t.Errorf("empty pattern: %v %v", st, got)
	}
	if _, got := TwigStack(mustTwig(t, "a"), []List{a}); !sameList(got, a) {
		t.Error("single-node pattern must return its whole list")
	}
	if _, got := TwigStack(mustTwig(t, "a//b"), []List{a, nil}); len(got) != 0 {
		t.Errorf("empty leaf list: %d postings", len(got))
	}
	if _, got := TwigStack(mustTwig(t, "a//b"), []List{nil, a}); len(got) != 0 {
		t.Errorf("empty root list: %d postings", len(got))
	}
}

// TestTwigStackConcurrentSharedPattern: the join keeps its cursors and
// stacks per call, so goroutines may share one pattern and its lists (the
// runtime's morsel workers do). Meaningful under -race.
func TestTwigStackConcurrentSharedPattern(t *testing.T) {
	idx := BuildIndex(workload.Deep(workload.DeepConfig{Nodes: 6000, MaxDepth: 30, Fanout: 2, Seed: 2}))
	tw := mustTwig(t, "a//b/c")
	streams := tw.Streams(idx)
	wantSt, want := TwigStack(tw, streams)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st, got := TwigStack(tw, streams)
				if st != wantSt || !sameList(got, want) {
					t.Errorf("concurrent run diverged: %v/%d vs %v/%d", st, len(got), wantSt, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchSink keeps benchmarked results live.
var benchSink List

// BenchmarkTwigStackVsBinary times the holistic join's leaf output against
// the chained binary plan on a deep chain, a wide shallow tree and a
// low-selectivity leaf (the xqbench twig shapes).
func BenchmarkTwigStackVsBinary(b *testing.B) {
	shapes := []struct {
		name    string
		pattern string
		doc     workload.DeepConfig
	}{
		{"deep-chain", "a//b//c", workload.DeepConfig{Nodes: 60000, MaxDepth: 40, Fanout: 2, Seed: 3}},
		{"wide-shallow", "a//b", workload.DeepConfig{Nodes: 60000, MaxDepth: 6, Fanout: 24, Seed: 4}},
		{"low-selectivity-leaf", "a//b//z", workload.DeepConfig{
			Nodes: 60000, Names: []string{"a", "a", "a", "b", "b", "b", "z"}, Seed: 5}},
	}
	for _, sh := range shapes {
		idx := BuildIndex(workload.Deep(sh.doc))
		tw := mustTwig(b, sh.pattern)
		streams := tw.Streams(idx)
		child := chainEdges(tw)
		b.Run("twig/"+sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, benchSink = TwigStack(tw, streams)
			}
		})
		b.Run("binary/"+sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = binaryChain(streams, child)
			}
		})
	}
}
