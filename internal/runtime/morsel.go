package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"xqgo/internal/faultinject"
)

// Morsel-driven intra-query parallelism. The three hottest iteration loops
// — pre-order path-step range scans (compile_path.go), structural-join
// postings work (indexpath.go), and FLWOR for/where tuple pipelines
// (compile_flwor.go) — split their input into small contiguous morsels and
// schedule them over a worker pool. Each worker owns a forked slice of the
// dynamic context (Dynamic.fork: private step counter, buffer pool, and
// profile shard), and results stitch back in morsel-index order, which is
// input order, which is document order for the loops that promise it.
//
// Activation is demand-driven and opt-in: Dynamic.Workers must be set above
// one, and a loop only upgrades on NextBatch (drain demand) — Next keeps
// its exact lazy, item-at-a-time behavior, and executions over a still-
// parsing streamed input never upgrade. Extra workers beyond the pulling
// goroutine (the guaranteed minimum of one) are leased per round from a
// WorkerLimiter, so an abandoned iterator can never hold pool slots.

// WorkerLimiter arbitrates extra morsel workers against a shared slot pool.
// TryLease grants between 0 and n extra workers without blocking; Release
// returns exactly what a TryLease granted. Implementations must be safe for
// concurrent use. The service layer implements this on its admission
// executor (a heavy query eats idle request slots but never starves the
// queue); standalone executions default to a process-wide GOMAXPROCS pool.
type WorkerLimiter interface {
	TryLease(n int) int
	Release(n int)
}

// procPool is the default process-wide limiter: at most GOMAXPROCS-1 extra
// workers outstanding across every execution in the process — the pulling
// goroutine already occupies a CPU, so on a single-core machine nothing is
// ever granted and every loop stays sequential (no goroutine overhead where
// parallelism cannot pay). The limit is read per call, so runtime GOMAXPROCS
// changes apply immediately.
type procPool struct{ used atomic.Int64 }

var processPool procPool

// TryLease implements WorkerLimiter.
func (p *procPool) TryLease(n int) int {
	if n <= 0 {
		return 0
	}
	limit := int64(goruntime.GOMAXPROCS(0)) - 1
	for {
		cur := p.used.Load()
		free := limit - cur
		if free <= 0 {
			return 0
		}
		grant := int64(n)
		if grant > free {
			grant = free
		}
		if p.used.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

// Release implements WorkerLimiter.
func (p *procPool) Release(n int) {
	if n > 0 {
		p.used.Add(int64(-n))
	}
}

// leaseExtra grabs up to max extra workers for one morsel round; the
// calling goroutine is always the guaranteed minimum of one, so a grant of
// zero simply means "run this round sequentially". The release function
// must be called when the round completes — leases are scoped to a single
// round precisely so that an iterator the consumer abandons mid-stream can
// never leak pool slots.
func (d *Dynamic) leaseExtra(max int) (int, func()) {
	if d == nil || d.Workers <= 1 || max <= 0 {
		return 0, func() {}
	}
	want := d.Workers - 1
	if want > max {
		want = max
	}
	lim := d.Limiter
	if lim == nil {
		lim = &processPool
	}
	k := lim.TryLease(want)
	if k <= 0 {
		return 0, func() {}
	}
	return k, func() { lim.Release(k) }
}

// groupErr is the shared first-error slot of one parallel group. Workers
// publish their first failure and every sibling observes it through its
// forked interrupt hook, so a failed morsel (or parallel-sequence branch)
// cancels the rest of the group within one interrupt stride instead of
// letting them run to completion.
type groupErr struct {
	p atomic.Pointer[groupErrBox]
}

type groupErrBox struct{ err error }

// set publishes err as the group error if none is set yet.
func (g *groupErr) set(err error) {
	if err != nil {
		g.p.CompareAndSwap(nil, &groupErrBox{err: err})
	}
}

// load returns the group error, or nil.
func (g *groupErr) load() error {
	if b := g.p.Load(); b != nil {
		return b.err
	}
	return nil
}

// forkFor creates a per-worker context whose interrupt hook also observes
// the group's first error. The hook is installed even when the parent has
// none, so sibling cancellation is bounded by the interrupt stride
// regardless of deadlines.
func (d *Dynamic) forkFor(g *groupErr) *Dynamic {
	w := d.fork()
	parent := d.Interrupt
	w.Interrupt = func() error {
		if err := g.load(); err != nil {
			return err
		}
		if parent != nil {
			return parent()
		}
		return nil
	}
	return w
}

// Morsel sizing. Chunks are large enough to amortize scheduling and small
// enough that dynamic claiming balances skew; rounds are bounded so a
// parallel upgrade materializes a bounded slice ahead of the consumer.
const (
	// descMorselIDs is the pre-order id span of one path-scan morsel.
	descMorselIDs = 8192
	// descRoundChunks bounds a scan round to this many chunks per worker.
	descRoundChunks = 4
	// joinMorselPostings is the leaf-postings span of one twig-join morsel.
	joinMorselPostings = 8192
	// feedMorselPostings is the postings span of one feed morsel.
	feedMorselPostings = 4096
	// feedRoundChunks bounds a feed round to this many chunks per worker.
	feedRoundChunks = 4
	// flworMorselTuples is the tuple span of one FLWOR morsel.
	flworMorselTuples = 64
	// flworRoundChunks bounds a FLWOR round to this many chunks per worker.
	flworRoundChunks = 2
	// flworTupleEstBytes is the budget estimate per gathered FLWOR tuple
	// frame (Frame header plus its binding's materialized-value headers).
	flworTupleEstBytes = 128
)

// morselRound evaluates chunks [0, chunks) of one parallel round: the
// caller plus extra leased workers claim chunk indexes from a shared
// cursor, each running on its own forked context, and results stitch back
// by chunk index — index-tagged stitching that restores input order (and
// hence document order) with no sorting. The first failing chunk by index
// decides the returned error; its siblings abort early through the group
// hook, and a panic in a chunk surfaces like an error (recoverXQ).
func morselRound[T any](d *Dynamic, extra, chunks int, fn func(w *Dynamic, chunk int) (T, error)) ([]T, error) {
	results := make([]T, chunks)
	if extra <= 0 {
		for i := 0; i < chunks; i++ {
			r, err := fn(d, i)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}
	if extra > chunks-1 {
		extra = chunks - 1
	}
	errs := make([]error, chunks)
	var g groupErr
	var next atomic.Int64
	work := func(w *Dynamic) {
		for g.load() == nil {
			i := int(next.Add(1)) - 1
			if i >= chunks {
				return
			}
			func() {
				defer func() { g.set(errs[i]) }()
				defer recoverXQ(&errs[i])
				faultinject.FirePanic(faultinject.MorselPanic)
				results[i], errs[i] = fn(w, i)
			}()
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < extra; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := d.forkFor(&g)
			work(w)
			d.Prof.foldShard(w.Prof)
		}()
	}
	self := d.forkFor(&g)
	work(self)
	d.Prof.foldShard(self.Prof)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
