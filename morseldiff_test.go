package xqgo_test

// Differential test for morsel-driven intra-query parallelism: every query
// of the batch differential suite — and a set of large-document queries
// that actually cross the morsel activation thresholds — is evaluated with
// worker parallelism off and on (Workers=8), under every engine variant,
// asserting identical results and identical error codes. Run in CI at
// GOMAXPROCS=8 under -race: workers share indexes, the call memo, and the
// resolver across goroutines.

import (
	"fmt"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

// grantAll always grants the full worker request, so the differential runs
// real parallel rounds regardless of the host's CPU count (the default
// process pool grants nothing on a single-CPU machine).
type grantAll struct{}

func (grantAll) TryLease(n int) int { return n }
func (grantAll) Release(int)        {}

func TestMorselDifferentialPaperSuite(t *testing.T) {
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			for _, q := range batchDiffQueries {
				compiled, err := xqgo.Compile(q, &os.opts)
				if err != nil {
					t.Fatalf("compile %q: %v", q, err)
				}
				ctxSeq, _ := paperCtx(t)
				ctxPar, _ := paperCtx(t)
				ctxPar.WithWorkers(8).WithWorkerLimiter(grantAll{})
				outSeq, errSeq := compiled.EvalString(ctxSeq)
				outPar, errPar := compiled.EvalString(ctxPar)
				if errCode(errSeq) != errCode(errPar) {
					t.Errorf("%q: error mismatch: sequential %v vs workers %v", q, errSeq, errPar)
					continue
				}
				if errSeq == nil && outSeq != outPar {
					t.Errorf("%q: result mismatch:\n  sequential: %q\n  workers:    %q", q, outSeq, outPar)
				}
			}
		})
	}
}

// morselDeepQueries run over a document large enough that the path-scan,
// structural-join, and FLWOR morsel loops genuinely split into parallel
// rounds (the paper suite's bib document is far below the thresholds).
var morselDeepQueries = []string{
	// Descendant range scans over the pre-order array.
	`count(//a)`,
	`count(//b) + count(//c)`,
	`string-join((//a)[position() <= 20]/local-name(), "")`,
	// Structural-join chains (postings feeds at scale).
	`count(//a//b)`,
	`count(//a//b//c)`,
	`(//a//b)[500]/local-name()`,
	// FLWOR tuple pipelines.
	`sum(for $i in 1 to 20000 return $i mod 7)`,
	`string-join(for $b in //b return local-name($b), "")`,
	`count(for $a in //a where count($a/*) > 2 return $a)`,
	// Error position must not depend on worker count.
	`count(for $i in 1 to 20000 return 1 idiv (20000 - $i))`,
	`sum(for $i in 1 to 20000 return if ($i = 19999) then "boom" else 1)`,
}

func TestMorselDifferentialDeepDoc(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 2}))
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			for _, q := range morselDeepQueries {
				compiled, err := xqgo.Compile(q, &os.opts)
				if err != nil {
					t.Fatalf("compile %q: %v", q, err)
				}
				base := ""
				var baseErr error
				for i, workers := range []int{0, 2, 8} {
					ctx := xqgo.NewContext().WithContextNode(doc)
					if workers > 0 {
						ctx.WithWorkers(workers).WithWorkerLimiter(grantAll{})
					}
					out, err := compiled.EvalString(ctx)
					if i == 0 {
						base, baseErr = out, err
						continue
					}
					if errCode(err) != errCode(baseErr) {
						t.Errorf("%q: workers=%d error mismatch: %v vs sequential %v",
							q, workers, err, baseErr)
						continue
					}
					if baseErr == nil && out != base {
						t.Errorf("%q: workers=%d result mismatch:\n  sequential: %q\n  workers:    %q",
							q, workers, base, out)
					}
				}
			}
		})
	}
}

// Concurrent executions of one shared plan, each with morsel workers: the
// per-execution state (buffer pools, profile shards, step counters) must
// stay isolated while the shared caches (indexes, memo) stay consistent.
func TestMorselConcurrentExecutions(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 30000, Seed: 7}))
	opts := xqgo.Options{Strategy: xqgo.ForceTwig}
	compiled, err := xqgo.Compile(`count(//a//b)`, &opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compiled.EvalString(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			ctx := xqgo.NewContext().WithContextNode(doc).WithWorkers(4).WithWorkerLimiter(grantAll{})
			got, err := compiled.EvalString(ctx)
			if err == nil && got != want {
				err = fmt.Errorf("concurrent run: got %q, want %q", got, want)
			}
			errs <- err
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
