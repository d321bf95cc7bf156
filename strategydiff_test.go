package xqgo_test

// Differential test for the join strategies: every query of the paper
// suite plus join-shaped chains and branching twigs over a 60k-node deep
// document is evaluated under both forced strategies (navigation, holistic
// twig join) and under cost-based Auto, asserting identical results and
// identical error identity. The deep-doc queries also run with 8 morsel workers; CI runs
// this under -race at GOMAXPROCS=8, so the per-chunk twig runs and the
// shared plan-choice cache get real scheduler pressure.

import (
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

var strategyOptSets = []struct {
	name string
	opts xqgo.Options
}{
	{"navigation", xqgo.Options{Strategy: xqgo.ForceNavigation}},
	{"twig-join", xqgo.Options{Strategy: xqgo.ForceTwig}},
	{"auto", xqgo.Options{Strategy: xqgo.StrategyAuto}},
}

// TestStrategyDifferential: the paper suite (including its error-path
// queries) must be strategy-invariant. Navigation is the reference.
func TestStrategyDifferential(t *testing.T) {
	for _, q := range batchDiffQueries {
		var wantOut string
		var wantErr string
		for i, os := range strategyOptSets {
			compiled, err := xqgo.Compile(q, &os.opts)
			if err != nil {
				t.Fatalf("compile (%s) %q: %v", os.name, q, err)
			}
			ctx, _ := paperCtx(t)
			out, evalErr := compiled.EvalString(ctx)
			if i == 0 {
				wantOut, wantErr = out, errCode(evalErr)
				continue
			}
			if got := errCode(evalErr); got != wantErr {
				t.Errorf("%q: %s error %q != navigation error %q", q, os.name, got, wantErr)
				continue
			}
			if evalErr == nil && out != wantOut {
				t.Errorf("%q: %s result mismatch:\n  navigation: %.120q\n  %s: %.120q",
					q, os.name, wantOut, os.name, out)
			}
		}
	}
}

// TestStrategyDifferentialDeep: join-shaped chains over a document deep
// enough that every strategy takes a genuinely different code path,
// sequentially and with 8 morsel workers per execution.
func TestStrategyDifferentialDeep(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 10}))
	queries := []string{
		`count(//a//b)`,
		`count(//a//b//c)`,
		`count(//a//b/c)`,
		`count(/root//a//b)`,
		`count(//a//a)`, // self-chain: strict containment must hold everywhere
		`count(//a//a/a)`,
		`count(//b/a//b)`,
		`string-join(for $n in //a//b//c return local-name($n), "")`,
		`(//a//b)[17]/local-name(.)`,
		`count(//a//b[1 idiv 0])`, // error identity through every join path
		// Branching twigs: predicates on non-final steps reduce by
		// semi-join, then the linear main path joins.
		`count(//a[b]//d)`,
		`count(//a[.//b]//d)`,
		`count(//a[b/c]//d)`,
		`count(//a[b[c]]//d)`,
		`count(//a[b][c]//d)`,
		`count(/root/a[b]//d)`,
		`count(//a[b]//c/d)`,
		`(//a[b]//d)[5]/local-name(.)`,
		// Look-alikes that keep navigating and must still agree.
		`count(//a[1]//d)`,
		`count(//a[b = "1"]//d)`,
		`count(//a//d[b])`,
		`count(//a[b]//d[1 idiv 0])`,
	}
	for _, q := range queries {
		var wantOut string
		var wantErr string
		for i, os := range strategyOptSets {
			compiled, err := xqgo.Compile(q, &os.opts)
			if err != nil {
				t.Fatalf("compile (%s) %q: %v", os.name, q, err)
			}
			for _, workers := range []int{0, 8} {
				ctx := xqgo.NewContext().WithContextNode(doc)
				if workers > 0 {
					ctx.WithWorkers(workers)
				}
				out, evalErr := compiled.EvalString(ctx)
				if i == 0 && workers == 0 {
					wantOut, wantErr = out, errCode(evalErr)
					continue
				}
				if got := errCode(evalErr); got != wantErr {
					t.Errorf("%q (%s, workers=%d): error %q != reference %q",
						q, os.name, workers, got, wantErr)
					continue
				}
				if evalErr == nil && out != wantOut {
					t.Errorf("%q (%s, workers=%d): result mismatch:\n  reference: %.120q\n  got:       %.120q",
						q, os.name, workers, wantOut, out)
				}
			}
		}
	}
}

// TestBranchChildEdgeTrap pins the documents on which a branching TwigStack's
// leaf output is wrong: the d is output as soon as its own a//d path
// matches, although the a has no child b (a descendant b in the first, a
// child b only under a nested a in the second). Every strategy must answer
// 0.
func TestBranchChildEdgeTrap(t *testing.T) {
	for _, src := range []string{
		`<r><a><x><b/></x><d/></a></r>`,
		`<r><a><d/><a><b/></a></a></r>`,
	} {
		doc := xqgo.MustParseString(src, "trap.xml")
		for _, os := range strategyOptSets {
			q := xqgo.MustCompile(`count(//a[b]//d)`, &os.opts)
			for _, workers := range []int{0, 8} {
				got, err := q.EvalString(xqgo.NewContext().WithContextNode(doc).WithWorkers(workers))
				if err != nil {
					t.Fatalf("%s (workers=%d) on %s: %v", os.name, workers, src, err)
				}
				if got != "0" {
					t.Errorf("%s (workers=%d) on %s: count(//a[b]//d) = %s, want 0", os.name, workers, src, got)
				}
			}
		}
	}
}
