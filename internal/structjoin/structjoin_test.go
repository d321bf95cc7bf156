package structjoin

import (
	"testing"
	"testing/quick"

	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

// buildTree constructs a small document with known a/b nesting:
//
//	<root>
//	  <a>            a1
//	    <b/>         b1
//	    <a>          a2
//	      <b/>       b2
//	    </a>
//	  </a>
//	  <b/>           b3 (not under any a)
//	  <a><c/></a>    a3
//	</root>
func buildTree(t testing.TB) *store.Document {
	t.Helper()
	b := store.NewBuilder(store.BuilderOptions{})
	b.StartDocument()
	b.StartElement(xdm.LocalName("root"))
	b.StartElement(xdm.LocalName("a")) // a1
	b.StartElement(xdm.LocalName("b")) // b1
	b.EndElement()
	b.StartElement(xdm.LocalName("a")) // a2
	b.StartElement(xdm.LocalName("b")) // b2
	b.EndElement()
	b.EndElement()
	b.EndElement()
	b.StartElement(xdm.LocalName("b")) // b3
	b.EndElement()
	b.StartElement(xdm.LocalName("a")) // a3
	b.StartElement(xdm.LocalName("c"))
	b.EndElement()
	b.EndElement()
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBuildIndex(t *testing.T) {
	doc := buildTree(t)
	idx := BuildIndex(doc)
	if got := len(idx.Elements(xdm.LocalName("a"))); got != 3 {
		t.Errorf("a postings = %d, want 3", got)
	}
	if got := len(idx.Elements(xdm.LocalName("b"))); got != 3 {
		t.Errorf("b postings = %d, want 3", got)
	}
	if got := idx.Elements(xdm.LocalName("nosuch")); got != nil {
		t.Errorf("missing name should be nil, got %v", got)
	}
	// Sorted by start.
	list := idx.Elements(xdm.LocalName("a"))
	for i := 1; i < len(list); i++ {
		if list[i-1].Region.Start >= list[i].Region.Start {
			t.Error("posting list not sorted")
		}
	}
}

func TestStackTreeDescCorrectness(t *testing.T) {
	doc := buildTree(t)
	idx := BuildIndex(doc)
	a := idx.Elements(xdm.LocalName("a"))
	b := idx.Elements(xdm.LocalName("b"))

	// Expected a//b pairs: (a1,b1), (a1,b2), (a2,b2) = 3.
	pairs := StackTreeDesc(a, b, false)
	if len(pairs) != 3 {
		t.Fatalf("ancestor pairs = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		if !p.Ancestor.Region.Contains(p.Descendant.Region) {
			t.Errorf("pair %v is not an ancestor relation", p)
		}
	}
	// Parent-only: (a1,b1), (a2,b2) = 2.
	ppairs := StackTreeDesc(a, b, true)
	if len(ppairs) != 2 {
		t.Errorf("parent pairs = %d, want 2", len(ppairs))
	}
	for _, p := range ppairs {
		if !p.Ancestor.Region.ParentOf(p.Descendant.Region) {
			t.Errorf("pair %v is not a parent relation", p)
		}
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	doc := buildTree(t)
	idx := BuildIndex(doc)
	a := idx.Elements(xdm.LocalName("a"))
	b := idx.Elements(xdm.LocalName("b"))
	for _, parentOnly := range []bool{false, true} {
		st := StackTreeDesc(a, b, parentOnly)
		tm := TreeMergeDesc(a, b, parentOnly)
		nav := NavigationDesc(doc, xdm.LocalName("a"), xdm.LocalName("b"), parentOnly)
		if len(st) != len(tm) || len(st) != len(nav) {
			t.Errorf("parentOnly=%v: stack=%d merge=%d nav=%d", parentOnly, len(st), len(tm), len(nav))
		}
	}
}

func TestDistinctProjections(t *testing.T) {
	doc := buildTree(t)
	idx := BuildIndex(doc)
	pairs := StackTreeDesc(idx.Elements(xdm.LocalName("a")), idx.Elements(xdm.LocalName("b")), false)
	descs := DistinctDescendants(pairs)
	if len(descs) != 2 { // b1, b2
		t.Errorf("distinct descendants = %d, want 2", len(descs))
	}
	ancs := DistinctAncestors(pairs)
	if len(ancs) != 2 { // a1, a2
		t.Errorf("distinct ancestors = %d, want 2", len(ancs))
	}
	for i := 1; i < len(ancs); i++ {
		if ancs[i-1].Region.Start >= ancs[i].Region.Start {
			t.Error("ancestors not in document order")
		}
	}
}

func TestParseTwig(t *testing.T) {
	cases := map[string]string{
		"a//b":       "a//b",
		"a/b":        "a/b",
		"a[b]//c":    "a[b]//c",
		"a[b//c]//d": "a[b//c]//d",
		"a[b][c]/d":  "a[b][c]/d",
	}
	for src, want := range cases {
		tw, err := ParseTwig(src)
		if err != nil {
			t.Errorf("ParseTwig(%q): %v", src, err)
			continue
		}
		if tw.String() != want {
			t.Errorf("ParseTwig(%q).String() = %q", src, tw.String())
		}
	}
	for _, bad := range []string{"", "a[", "a[b", "//", "a//"} {
		if _, err := ParseTwig(bad); err == nil {
			t.Errorf("ParseTwig(%q) should fail", bad)
		}
	}
}

func mustTwig(t testing.TB, s string) *TwigNode {
	t.Helper()
	tw, err := ParseTwig(s)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

func TestTwigStackLinearMatchesNavigation(t *testing.T) {
	doc := buildTree(t)
	idx := BuildIndex(doc)
	for _, pat := range []string{"a//b", "root//a", "a//a", "a/b", "root//a//b"} {
		tw := mustTwig(t, pat)
		stats, _ := TwigStack(tw, tw.Streams(idx))
		want := NavTwigCount(tw, doc)
		if stats.PathSolutions != want {
			t.Errorf("%s: TwigStack path solutions = %d, navigation count = %d",
				pat, stats.PathSolutions, want)
		}
	}
}

func TestTwigStackOnGeneratedData(t *testing.T) {
	doc := workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 7})
	idx := BuildIndex(doc)
	for _, pat := range []string{"a//b", "a//b//c", "b//a", "a/b", "root//d", "a//b/c", "a//a/a", "a/a/a"} {
		tw := mustTwig(t, pat)
		stats, _ := TwigStack(tw, tw.Streams(idx))
		want := NavTwigCount(tw, doc)
		if stats.PathSolutions != want {
			t.Errorf("%s on deep data: holistic = %d, navigation = %d",
				pat, stats.PathSolutions, want)
		}
	}
	// Branching patterns: holistic intermediates never exceed the binary
	// plan's pairs (the E6 claim).
	for _, pat := range []string{"a[b]//c", "a[b//c]//d"} {
		tw := mustTwig(t, pat)
		stats, _ := TwigStack(tw, tw.Streams(idx))
		binary := BinaryPlanStats(tw, idx)
		if stats.PathSolutions > binary {
			t.Errorf("%s: holistic intermediates %d > binary pairs %d",
				pat, stats.PathSolutions, binary)
		}
	}
}

// Property: on random trees, StackTreeDesc agrees with the O(n^2)
// definition of the ancestor/descendant join.
func TestStackTreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		doc := workload.Deep(workload.DeepConfig{Nodes: 300, Seed: seed})
		idx := BuildIndex(doc)
		a := idx.Elements(xdm.LocalName("a"))
		b := idx.Elements(xdm.LocalName("b"))
		got := StackTreeDesc(a, b, false)
		// brute force
		want := 0
		for _, anc := range a {
			for _, d := range b {
				if anc.Region.Contains(d.Region) {
					want++
				}
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
