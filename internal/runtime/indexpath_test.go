package runtime

import (
	"strings"
	"testing"

	"xqgo/internal/expr"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xqparse"
)

func chainOf(t *testing.T, src string) ([]joinStep, bool) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := extractJoinChain(q.Body)
	if !ok {
		return nil, false
	}
	return normalizeChain(raw)
}

func TestExtractJoinChain(t *testing.T) {
	cases := []struct {
		src   string
		names []string // expected chain names; nil = not join-shaped
		child []bool
	}{
		{`//a//b`, []string{"a", "b"}, []bool{false, false}},
		{`//a/b`, []string{"a", "b"}, []bool{false, true}},
		{`/r//a/b//c`, []string{"r", "a", "b", "c"}, []bool{true, false, true, false}},
		{`//a`, []string{"a"}, []bool{false}},
		{`//a[b]//c`, []string{"a", "c"}, []bool{false, false}}, // predicates ride on a
		{`/r/a[.//b][c]/descendant::d`, []string{"r", "a", "d"}, []bool{true, true, false}},
		{`//a[1]//c`, nil, nil},       // positional predicate blocks
		{`//a[b = "1"]//c`, nil, nil}, // value comparison blocks
		{`//a[@id]//c`, nil, nil},     // attribute predicate blocks
		{`//a[//b]//c`, nil, nil},     // rooted predicate blocks
		{`//*//b`, nil, nil},          // wildcard blocks
		{`$x//a//b`, nil, nil},        // non-root base blocks
		{`//a//text()`, nil, nil},
	}
	for _, c := range cases {
		chain, ok := chainOf(t, c.src)
		if c.names == nil {
			if ok {
				t.Errorf("%s: should not be join-shaped, got %v", c.src, chain)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: expected join chain", c.src)
			continue
		}
		if len(chain) != len(c.names) {
			t.Errorf("%s: chain length %d, want %d (%v)", c.src, len(chain), len(c.names), chain)
			continue
		}
		for i := range chain {
			if chain[i].name.Local != c.names[i] || chain[i].childOnly != c.child[i] {
				t.Errorf("%s step %d: %+v, want %s child=%v", c.src, i, chain[i], c.names[i], c.child[i])
			}
		}
	}
}

// TestExtractPredicates: eligible predicates become twig patterns rooted at
// the predicate's first step, with the edge to the anchor step on it and
// nested predicates and continuations as children.
func TestExtractPredicates(t *testing.T) {
	cases := []struct {
		src  string
		want []string // per predicate: pattern, then the head's edge
	}{
		{`//a[b]//d`, []string{"b", "child"}},
		{`//a[./b]//d`, []string{"b", "child"}},
		{`//a[.//b]//d`, []string{"b", "desc"}},
		{`//a[descendant::b]//d`, []string{"b", "desc"}},
		{`//a[b/c]//d`, []string{"b/c", "child"}},
		{`//a[b//c]//d`, []string{"b//c", "child"}},
		{`//a[b[c]]//d`, []string{"b/c", "child"}},
		{`//a[b[c]/e]//d`, []string{"b[c]/e", "child"}},
		{`//a[b][.//c]//d`, []string{"b", "child", "c", "desc"}},
	}
	for _, c := range cases {
		chain, ok := chainOf(t, c.src)
		if !ok {
			t.Errorf("%s: expected a join chain", c.src)
			continue
		}
		var got []string
		for _, p := range chain[0].preds {
			edge := "desc"
			if p.ChildEdge {
				edge = "child"
			}
			got = append(got, p.String(), edge)
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s: predicates %v, want %v", c.src, got, c.want)
		}
	}
}

// TestJoinPlanEligibility: predicates on non-final steps are join-eligible;
// a predicate on the final step is not.
func TestJoinPlanEligibility(t *testing.T) {
	for src, want := range map[string]bool{
		`//a[b]//d`:      true,
		`/r/a[b]//d`:     true,
		`//a[b]//c/d`:    true,
		`//a//d[b]`:      false,
		`//a[b]//d[c]`:   false,
		`//a[b]/d`:       false, // no descendant edge after the first step
		`//a[b][1]//d`:   false,
		`//a[b[1]]//d`:   false,
		`//a[b or c]//d`: false,
	} {
		q, err := xqparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, isPath := q.Body.(*expr.Path)
		if got := isPath && extractJoinPlan(p) != nil; got != want {
			t.Errorf("%s: join-eligible = %v, want %v", src, got, want)
		}
	}
}

// TestBranchPlanProfileFeedback: Auto picks the twig join for a branching
// twig on a deep document, the profile row of the //a[b]//d operator says
// so, and its observed cardinality is fed back for the next decision.
func TestBranchPlanProfileFeedback(t *testing.T) {
	doc := workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 10})
	p := compileProf(t, `count(//a[b]//d)`, Options{})
	prof := p.NewProfile(false)
	out, err := p.Eval(&Dynamic{ContextItem: doc.RootNode(), Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	want, ok := out[0].(xdm.Atomic)
	if !ok || len(out) != 1 || want.AsInt() == 0 {
		t.Fatalf("result %v, want one non-zero integer", out)
	}
	twigOps := 0
	for _, op := range prof.Report().Operators {
		if op.Kind != "path" || op.Strategy == "" {
			continue
		}
		if op.Strategy != "twig-join" {
			t.Errorf("path op %d (%s) resolved to %q, want twig-join", op.ID, op.Detail, op.Strategy)
			continue
		}
		twigOps++
		if op.Items != want.AsInt() {
			t.Errorf("op %d delivered %d items, want %d", op.ID, op.Items, want.AsInt())
		}
		if got := p.fb.observed(op.ID); got != want.AsInt() {
			t.Errorf("op %d feedback = %d, want the observed count %d", op.ID, got, want.AsInt())
		}
	}
	if twigOps != 1 {
		t.Errorf("%d path operators ran the twig join, want 1", twigOps)
	}
	if c := prof.Report().Counters; c.PlanTwigJoin != 1 || c.TwigJoins != 1 {
		t.Errorf("counters: planTwigJoin %d, twigJoins %d; want 1 and 1", c.PlanTwigJoin, c.TwigJoins)
	}
}

func TestMemoKey(t *testing.T) {
	args := []xdm.Sequence{{xdm.NewInteger(1)}, {xdm.NewString("a"), xdm.NewString("b")}}
	k1, ok := memoKey("f/2", args)
	if !ok {
		t.Fatal("atomic args must be cachable")
	}
	k2, _ := memoKey("f/2", args)
	if k1 != k2 {
		t.Error("same args, same key")
	}
	k3, _ := memoKey("f/2", []xdm.Sequence{{xdm.NewInteger(1)}, {xdm.NewString("ab")}})
	if k1 == k3 {
		t.Error("different arg shapes must not collide")
	}
	// Distinguish ("a","b") from ("a,b")-style merges.
	k4, _ := memoKey("f/2", []xdm.Sequence{{xdm.NewInteger(1), xdm.NewString("a")}, {xdm.NewString("b")}})
	if k1 == k4 {
		t.Error("argument boundaries must participate in the key")
	}
	// Node arguments: not cachable.
	dyn := testDynamic(t)
	if _, ok := memoKey("f/1", []xdm.Sequence{{dyn.ContextItem}}); ok {
		t.Error("node arguments must bypass the cache")
	}
	// Different types, same lexical.
	ki, _ := memoKey("f/1", []xdm.Sequence{{xdm.NewInteger(1)}})
	ks, _ := memoKey("f/1", []xdm.Sequence{{xdm.NewString("1")}})
	if ki == ks {
		t.Error("type participates in the key")
	}
}
