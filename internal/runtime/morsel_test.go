package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqgo/internal/optimizer"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
	"xqgo/internal/xqparse"
)

// evalQueryOn is evalQuery against a caller-supplied dynamic context.
func evalQueryOn(t *testing.T, src string, opts Options, d *Dynamic) (string, error) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(q, opts)
	if err != nil {
		return "", err
	}
	seq, err := p.Eval(d)
	if err != nil {
		return "", err
	}
	return serializer.SequenceToString(seq)
}

// ---- morsel rounds ----

func TestMorselRoundStitchOrder(t *testing.T) {
	d := &Dynamic{Workers: 8, Limiter: &procPool{}}
	const chunks = 32
	results, err := morselRound(d, 4, chunks, func(w *Dynamic, chunk int) (int, error) {
		if chunk%3 == 0 {
			time.Sleep(time.Millisecond) // force out-of-order completion
		}
		return chunk * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Fatalf("chunk %d stitched as %d, want %d", i, r, i*10)
		}
	}
}

func TestMorselRoundSequentialFallback(t *testing.T) {
	d := &Dynamic{} // Workers unset: extra = 0, pure sequential
	var order []int
	results, err := morselRound(d, 0, 5, func(w *Dynamic, chunk int) (int, error) {
		if w != d {
			t.Error("sequential round must run on the caller's context, not a fork")
		}
		order = append(order, chunk)
		return chunk, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != i || order[i] != i {
			t.Fatalf("sequential round out of order: results=%v order=%v", results, order)
		}
	}
}

func TestMorselRoundError(t *testing.T) {
	d := &Dynamic{Workers: 4, Limiter: &procPool{}}
	boom := xdm.Errf("FORG0001", "chunk failure")
	_, err := morselRound(d, 3, 16, func(w *Dynamic, chunk int) (int, error) {
		if chunk == 5 {
			return 0, boom
		}
		return chunk, nil
	})
	if err == nil || !strings.Contains(err.Error(), "FORG0001") {
		t.Fatalf("round error = %v, want the chunk-5 failure", err)
	}
}

func TestMorselRoundPanicBecomesError(t *testing.T) {
	d := &Dynamic{Workers: 4, Limiter: &procPool{}}
	_, err := morselRound(d, 3, 8, func(w *Dynamic, chunk int) (int, error) {
		if chunk == 2 {
			panic(xdm.Errf("XPDY0002", "typed panic"))
		}
		return chunk, nil
	})
	if err == nil || !strings.Contains(err.Error(), "XPDY0002") {
		t.Fatalf("panicked chunk surfaced as %v, want XPDY0002", err)
	}
}

// A failing chunk must cancel its sibling workers through the group hook
// within an interrupt stride — they must not run to completion.
func TestMorselRoundCancelsSiblings(t *testing.T) {
	d := &Dynamic{Workers: 4, Limiter: &procPool{}}
	boom := xdm.Errf("FOAR0001", "early failure")
	start := time.Now()
	_, err := morselRound(d, 3, 4, func(w *Dynamic, chunk int) (int, error) {
		if chunk == 0 {
			return 0, boom
		}
		// Spin like a long scan: poll the interrupt hook until canceled.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if err := w.CheckInterrupt(); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("sibling chunk %d never observed the group error", chunk)
	})
	if err == nil || !strings.Contains(err.Error(), "FOAR0001") {
		t.Fatalf("round error = %v, want the chunk-0 failure", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("siblings ran %v after the group error; cancellation is broken", elapsed)
	}
}

func TestGroupErrFirstWins(t *testing.T) {
	var g groupErr
	if g.load() != nil {
		t.Fatal("fresh group has an error")
	}
	g.set(nil) // no-op
	e1 := xdm.Errf("FORG0001", "first")
	e2 := xdm.Errf("FORG0001", "second")
	g.set(e1)
	g.set(e2)
	if g.load() != e1 {
		t.Fatalf("group error = %v, want the first published error", g.load())
	}
}

// ---- per-worker interrupt counters (satellite: CheckInterrupt contention) ----

// Each forked worker owns a private step counter, so its poll latency is
// exactly one stride regardless of how skewed the parent's counter is or how
// many siblings are hammering theirs.
func TestForkInterruptLatencyBounded(t *testing.T) {
	var armed atomic.Bool
	parent := &Dynamic{Interrupt: func() error {
		if armed.Load() {
			return xdm.Errf("XQGO0001", "deadline")
		}
		return nil
	}}
	// Skew the parent's counter mid-stride; forks must not inherit the phase.
	for i := 0; i < interruptStride/2; i++ {
		if err := parent.CheckInterrupt(); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)

	const workers = 8
	var wg sync.WaitGroup
	calls := make([]int, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := parent.fork()
			for {
				calls[k]++
				if err := w.CheckInterrupt(); err != nil {
					return
				}
				if calls[k] > 2*interruptStride {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k, n := range calls {
		if n != interruptStride {
			t.Errorf("worker %d observed the deadline after %d calls, want exactly one stride (%d)",
				k, n, interruptStride)
		}
	}
}

func TestForkSharesDeadlineHook(t *testing.T) {
	var polls atomic.Int64
	parent := &Dynamic{Interrupt: func() error {
		polls.Add(1)
		return nil
	}}
	w := parent.fork()
	for i := 0; i < interruptStride; i++ {
		if err := w.CheckInterrupt(); err != nil {
			t.Fatal(err)
		}
	}
	if polls.Load() != 1 {
		t.Fatalf("fork polled the shared hook %d times over one stride, want 1", polls.Load())
	}
}

// ---- worker leasing ----

func TestProcPoolLease(t *testing.T) {
	// The limit is read per TryLease call, so pinning GOMAXPROCS here makes
	// the test deterministic on any machine.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	p := &procPool{}
	const limit = 3 // GOMAXPROCS - 1: the caller already owns a CPU
	got := p.TryLease(limit + 5)
	if got != limit {
		t.Fatalf("TryLease(%d) = %d, want the GOMAXPROCS-1 limit %d", limit+5, got, limit)
	}
	if extra := p.TryLease(1); extra != 0 {
		t.Fatalf("exhausted pool granted %d", extra)
	}
	p.Release(got)
	if again := p.TryLease(1); again != 1 {
		t.Fatalf("released pool granted %d, want 1", again)
	}
	p.Release(1)
	if p.TryLease(0) != 0 || p.TryLease(-3) != 0 {
		t.Fatal("non-positive lease request granted workers")
	}

	// On a single-CPU machine the default pool grants nothing: the morsel
	// loops must stay sequential where parallelism cannot pay.
	goruntime.GOMAXPROCS(1)
	if got := p.TryLease(4); got != 0 {
		t.Fatalf("single-CPU pool granted %d, want 0", got)
	}
}

// grantAll is a test limiter that always grants the full request, so tests
// exercise real parallel rounds regardless of the host's CPU count.
type grantAll struct{}

func (grantAll) TryLease(n int) int { return n }
func (grantAll) Release(int)        {}

type recordLimiter struct {
	granted  int
	leases   atomic.Int64
	releases atomic.Int64
}

func (l *recordLimiter) TryLease(n int) int {
	l.leases.Add(int64(n))
	if n > l.granted {
		n = l.granted
	}
	return n
}
func (l *recordLimiter) Release(n int) { l.releases.Add(int64(n)) }

func TestLeaseExtra(t *testing.T) {
	var nilD *Dynamic
	if n, release := nilD.leaseExtra(4); n != 0 {
		t.Fatalf("nil context leased %d", n)
	} else {
		release() // must be callable
	}
	if n, _ := (&Dynamic{Workers: 1}).leaseExtra(4); n != 0 {
		t.Fatalf("single-worker context leased %d", n)
	}

	lim := &recordLimiter{granted: 2}
	d := &Dynamic{Workers: 4, Limiter: lim}
	n, release := d.leaseExtra(10)
	if n != 2 {
		t.Fatalf("leaseExtra = %d, want the limiter's grant of 2", n)
	}
	if lim.leases.Load() != 3 {
		t.Fatalf("asked the limiter for %d, want Workers-1 = 3", lim.leases.Load())
	}
	release()
	if lim.releases.Load() != 2 {
		t.Fatalf("released %d, want exactly the grant of 2", lim.releases.Load())
	}

	// max caps the request below Workers-1.
	lim2 := &recordLimiter{granted: 8}
	d2 := &Dynamic{Workers: 8, Limiter: lim2}
	if n, release := d2.leaseExtra(2); n != 2 {
		t.Fatalf("leaseExtra capped = %d, want 2", n)
	} else {
		release()
	}
}

// ---- profile shards ----

func TestProfileShardFold(t *testing.T) {
	p := &Profile{infos: make([]OpInfo, 3), ops: make([]opCounters, 3)}
	p.ops[1].starts.Add(1)
	p.ops[1].items.Add(10)

	sh := p.shard()
	if sh == nil || len(sh.ops) != 3 {
		t.Fatal("shard must mirror the parent's operator table")
	}
	if sh.ops[1].starts.Load() != 0 {
		t.Fatal("shard must start with zeroed counters")
	}
	sh.ops[1].starts.Add(2)
	sh.ops[1].items.Add(5)
	sh.ops[2].items.Add(7)
	sh.addInterruptPoll()
	sh.addInterruptPoll()

	p.foldShard(sh)
	if got := p.ops[1].starts.Load(); got != 3 {
		t.Errorf("ops[1].starts = %d, want 3", got)
	}
	if got := p.ops[1].items.Load(); got != 15 {
		t.Errorf("ops[1].items = %d, want 15", got)
	}
	if got := p.ops[2].items.Load(); got != 7 {
		t.Errorf("ops[2].items = %d, want 7", got)
	}
	if got := p.Report().Counters.InterruptPolls; got != 2 {
		t.Errorf("engine counters after fold: interrupt polls = %d, want 2", got)
	}

	// Nil-safety both ways.
	var nilP *Profile
	if nilP.shard() != nil {
		t.Error("nil profile must shard to nil")
	}
	nilP.foldShard(sh)
	p.foldShard(nil)
}

// ---- DocRegistry single-flight (satellite: resolver lock across I/O) ----

func TestDocRegistrySingleFlight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte(`<r><a/><a/></r>`), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewDocRegistry(true)
	const callers = 16
	nodes := make([]xdm.Node, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = reg.Doc(path)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if nodes[i] != nodes[0] {
			t.Fatalf("caller %d got a different document — the load was not single-flight", i)
		}
	}
}

func TestDocRegistryFailedLoadRetries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "late.xml")

	reg := NewDocRegistry(true)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Doc(path); err == nil {
				t.Error("missing document resolved without error")
			}
		}()
	}
	wg.Wait()

	// Failed loads are not cached: once the file exists, Doc succeeds.
	if err := os.WriteFile(path, []byte(`<ok/>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Doc(path); err != nil {
		t.Fatalf("retry after failed load: %v", err)
	}
}

func TestDocRegistryDistinctURIsConcurrent(t *testing.T) {
	dir := t.TempDir()
	const docs = 8
	paths := make([]string, docs)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("d%d.xml", i))
		if err := os.WriteFile(paths[i], []byte(fmt.Sprintf(`<d n="%d"/>`, i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewDocRegistry(true)
	var wg sync.WaitGroup
	for i := 0; i < docs; i++ {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := reg.Doc(paths[i]); err != nil {
					t.Errorf("doc %d: %v", i, err)
				}
			}(i)
		}
	}
	wg.Wait()
}

// ---- parallel sequence fail-fast (satellite: sibling cancellation) ----

// A branch that fails immediately must cancel a slow sibling through the
// group hook instead of waiting for it to finish. The slow branch here
// would run for minutes sequentially; the whole evaluation must return the
// failing branch's error in seconds.
func TestParallelSeqFailFastCancelsSlowBranch(t *testing.T) {
	q := `(sum(for $i in 1 to 50000000000 return 0 + 0 + 0 + 0 + 0),
	      (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1 idiv 0))`
	start := time.Now()
	_, err := evalWorkers(t, q, 8, Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("failing branch's error did not propagate")
	}
	if !strings.Contains(err.Error(), "FOAR0001") {
		t.Fatalf("error = %v, want the division failure (FOAR0001)", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("evaluation took %v — the failing branch did not cancel its slow sibling", elapsed)
	}
}

// ---- morsel-parallel evaluation correctness on real queries ----

// evalWorkers evaluates a query with morsel workers enabled on the standard
// test document.
func evalWorkers(t *testing.T, src string, workers int, opts Options) (string, error) {
	t.Helper()
	d := testDynamic(t)
	d.Workers = workers
	d.Limiter = grantAll{}
	return evalQueryOn(t, src, opts, d)
}

func TestMorselWorkersAgreeWithSequential(t *testing.T) {
	queries := []string{
		`count(//author)`,
		`string-join(//title/string(), "|")`,
		`sum(for $p in //price return xs:decimal($p))`,
		`string-join(for $b in //book where count($b/author) > 1 return string($b/title), ",")`,
		`count(//book//last)`,
	}
	for _, q := range queries {
		seq, serr := evalQuery(t, q, Options{})
		for _, workers := range []int{2, 8} {
			par, perr := evalWorkers(t, q, workers, Options{})
			if (serr == nil) != (perr == nil) {
				t.Errorf("%s: workers=%d error disagreement: %v vs %v", q, workers, serr, perr)
				continue
			}
			if seq != par {
				t.Errorf("%s: workers=%d result disagreement:\n seq %q\n par %q", q, workers, seq, par)
			}
		}
		// Structural joins with workers.
		par, perr := evalWorkers(t, q, 8, Options{Strategy: optimizer.StrategyTwigJoin})
		if perr != nil && serr == nil {
			t.Errorf("%s: structjoin workers error: %v", q, perr)
		} else if serr == nil && seq != par {
			t.Errorf("%s: structjoin workers disagreement:\n seq %q\n par %q", q, seq, par)
		}
	}
}

// Unreferenced let bindings must stay lazy under parallel FLWOR: forcing
// them would surface errors a sequential evaluation never hits.
func TestMorselFlworKeepsUnusedLetsLazy(t *testing.T) {
	q := `string-join(for $i in 1 to 200 let $dead := 1 idiv 0 return "x", "")`
	got, err := evalWorkers(t, q, 8, Options{})
	if err != nil {
		t.Fatalf("unused let was forced: %v", err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d items, want 200", len(got))
	}
}

// Errors inside a parallel FLWOR round must surface deterministically: the
// same error code at the same tuple, with all preceding outputs delivered.
func TestMorselFlworDeterministicError(t *testing.T) {
	q := `string-join(for $i in 1 to 500 return string(1 idiv (500 - $i)), "|")`
	_, serr := evalQuery(t, q, Options{})
	_, perr := evalWorkers(t, q, 8, Options{})
	if serr == nil || perr == nil {
		t.Fatalf("both evaluations must fail: seq=%v par=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error disagreement:\n seq %v\n par %v", serr, perr)
	}
}
