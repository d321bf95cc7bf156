package xqgo_test

// Concurrent execution of one compiled *Query — the contract the service
// layer's plan cache depends on. A forced join strategy and
// MemoizeFunctions are both on because they are the options that keep
// per-execution state (index cache, memo table); run with -race to verify
// that state stays confined to each Context.

import (
	"strings"
	"sync"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

func TestQueryConcurrentEvalSharedPlan(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{
		Nodes: 2000, Names: []string{"a", "b", "c"}, Fanout: 3, Seed: 11,
	}))

	q := xqgo.MustCompile(`
		declare function local:fib($n as xs:integer) as xs:integer {
			if ($n < 2) then $n else local:fib($n - 1) + local:fib($n - 2)
		};
		<out fib="{local:fib(15)}" ab="{count(//a//b)}" bc="{count(//b//c)}"/>`,
		&xqgo.Options{Strategy: xqgo.ForceTwig, MemoizeFunctions: true})

	want, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, `fib="610"`) {
		t.Fatalf("reference result = %q", want)
	}

	const goroutines = 32
	const iters = 8

	// Per-goroutine contexts over the same document and plan.
	t.Run("per-goroutine contexts", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					got, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
					if err != nil {
						errs <- err
						return
					}
					if got != want {
						t.Errorf("result diverged: %q != %q", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})

	// One shared Context: memo table and index cache are hit concurrently.
	t.Run("shared context", func(t *testing.T) {
		ctx := xqgo.NewContext().WithContextNode(doc)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					got, err := q.EvalString(ctx)
					if err != nil {
						errs <- err
						return
					}
					if got != want {
						t.Errorf("result diverged: %q != %q", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}
