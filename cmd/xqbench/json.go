package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"xqgo"
	"xqgo/internal/structjoin"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

// benchRow is one machine-readable benchmark result (ns per full operation).
type benchRow struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"nsPerOp"`
}

// benchReport is the JSON artifact written by -json (BENCH_PR3.json in CI).
type benchReport struct {
	GoVersion  string     `json:"goVersion"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Reps       int        `json:"reps"`
	Rows       []benchRow `json:"rows"`
	// Batch holds the batched-vs-item comparison: the same plan timed with
	// the vectorized NextBatch path (default) and with DisableBatching.
	Batch []batchRow `json:"batchVsItem"`
	// Ingest holds the streaming-ingestion comparison: the same query over
	// the same serialized document, parsed eagerly up front, lazily without
	// projection, and lazily with static path projection.
	Ingest []ingestRow `json:"ingest"`
	// StreamEval holds the event-driven streaming-evaluator comparison: the
	// paper query over a ~10 MiB Orders feed on the store engine (eager
	// parse, full runtime) versus stream mode (results emitted per window,
	// nothing materialized).
	StreamEval []streamEvalRow `json:"streamEval"`
	// TraceOverhead holds the request-tracing cost comparison: the same
	// stream-mode paper query with tracing off, with only the skeleton
	// stage spans (no profile), and profiled with/without a trace (full
	// per-operator span synthesis). CI gates on the on/off ratios.
	TraceOverhead []benchRow `json:"traceOverhead"`
	// Governance holds the resource-governance overhead comparison: the
	// same query run ungoverned and with a generous per-query memory budget
	// attached (charging every hot path, never tripping). CI gates on the
	// on/off ratio staying within 3%.
	Governance []govRow `json:"governance"`
	// TwigVsBinary holds the join-strategy comparison: each shape evaluated
	// with navigation, the holistic twig (TwigStack) join and cost-based
	// Auto, plus the raw binary stack-tree chain over the same index lists.
	// CI gates on Auto staying within 5% of the better of navigation and
	// twig on every shape, and on Auto picking the twig join on at least
	// one shape where it measurably beats the binary chain.
	TwigVsBinary []twigRow `json:"twigVsBinary"`
	// NumCPU records the machine's logical CPU count: the worker-scaling
	// speedup gate only applies where the hardware can actually express it.
	NumCPU int `json:"numCPU"`
	// Scaling holds the morsel-parallelism worker sweep: each query at a
	// sequential baseline (workers=0, morsels compiled out of the picture)
	// and at 1/2/4/8 workers. CI gates on the 1-worker row staying within
	// 5% of the baseline and, on >= 8-CPU machines, on the structural-join
	// row reaching 3x at 8 workers.
	Scaling []scalingRow `json:"workerScaling"`
}

// scalingRow is one worker-sweep measurement. Workers 0 is the sequential
// baseline; Speedup compares against the 1-worker row of the same query.
type scalingRow struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp int64   `json:"nsPerOp"`
	Speedup float64 `json:"speedup"`
}

// govRow is one governance-overhead measurement: the identical run without
// and with a never-tripping budget charged along every hot path. Overhead is
// the median of per-rep on/off ratios.
type govRow struct {
	Name     string  `json:"name"`
	OffNs    int64   `json:"offNsPerOp"`
	OnNs     int64   `json:"onNsPerOp"`
	Overhead float64 `json:"overhead"`
}

// streamEvalRow is one streaming-evaluator measurement.
type streamEvalRow struct {
	Name       string `json:"name"`
	Class      string `json:"class"` // streamability class of the plan
	NsPerOp    int64  `json:"nsPerOp"`
	TTFBNs     int64  `json:"ttfbNs"`          // time to first output byte
	PeakBuffer int64  `json:"peakBufferBytes"` // window-buffer high-water mark
	Windows    int64  `json:"windows"`
	Results    int64  `json:"results"`
	Fallbacks  int64  `json:"fallbacks"`
}

// ingestRow is one streaming-ingestion measurement. Node/byte counters come
// from the engine profile of a single instrumented run; timings are
// median-of-reps like every other row.
type ingestRow struct {
	Name         string `json:"name"`
	NsPerOp      int64  `json:"nsPerOp"`
	TTFBNs       int64  `json:"ttfbNs"`       // time to first output byte
	NodesBuilt   int64  `json:"nodesBuilt"`   // nodes materialized into the store
	NodesSkipped int64  `json:"nodesSkipped"` // tokenized but skipped by projection
	BytesParsed  int64  `json:"bytesParsed"`  // input bytes pulled on demand
}

// twigRow is one join-strategy comparison measurement. The ns/op columns
// are min-of-reps: navigation, twig and Auto through the engine on a warm
// per-strategy context (the index build is priced by its own rows
// elsewhere), binary as the raw stack-tree chain (StackTreeDesc plus
// DistinctDescendants per edge, after the same predicate semi-join the
// engine runs) over the same index lists — the engine has no binary plan. AutoVsBest is the median of per-rep auto/best-engine-plan
// ratios, so machine drift cancels out of the gate.
type twigRow struct {
	Name       string  `json:"name"`
	Query      string  `json:"query"`
	NavNs      int64   `json:"navNsPerOp"`
	BinaryNs   int64   `json:"binaryNsPerOp"`
	TwigNs     int64   `json:"twigNsPerOp"`
	AutoNs     int64   `json:"autoNsPerOp"`
	AutoChoice string  `json:"autoChoice"`
	AutoVsBest float64 `json:"autoVsBest"`
}

// batchRow is one batched-vs-item comparison measurement.
type batchRow struct {
	Name      string  `json:"name"`
	BatchedNs int64   `json:"batchedNsPerOp"`
	ItemNs    int64   `json:"itemNsPerOp"`
	Speedup   float64 `json:"speedup"` // itemNs / batchedNs
}

// runJSON runs the benchmark smoke suite — the paper-query workload at CI-
// friendly sizes — and writes ns/op rows as JSON to path. Unlike the E1..E13
// tables it is meant for artifact diffing across commits, so names are
// stable identifiers.
func (r *runner) runJSON(path string) error {
	paperQ := `for $line in /Order/OrderLine
	           where $line/SellersID eq "1"
	           return <lineItem>{string($line/Item/ID)}</lineItem>`
	orders := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: 10000, Sellers: 50, Seed: 1}))
	deepStore := workload.Deep(workload.DeepConfig{Nodes: 30000, Seed: 2})
	deep := xqgo.FromStore(deepStore)

	stream := mustCompile(paperQ, nil)
	eager := mustCompile(paperQ, &xqgo.Options{Engine: xqgo.Eager, NoOptimize: true})
	pathQ := mustCompile(`/Order/OrderLine/Item/ID`, nil)
	descQ := mustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceNavigation})
	joinQ := mustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceTwig})

	// Warm the structural-join index cache so the row measures the join.
	joinCtx := ctxFor(deep)
	mustEval(joinQ, joinCtx)

	bench := []struct {
		name string
		fn   func()
	}{
		{"paper-query/stream-full", func() { mustEval(stream, ctxFor(orders)) }},
		{"paper-query/eager-full", func() { mustEval(eager, ctxFor(orders)) }},
		{"paper-query/stream-serialize", func() {
			if err := stream.Execute(ctxFor(orders), io.Discard); err != nil {
				panic(err)
			}
		}},
		{"paper-query/first-10", func() {
			it, err := stream.Iterator(ctxFor(orders))
			if err != nil {
				panic(err)
			}
			for i := 0; i < 10; i++ {
				if _, ok, err := it.Next(); err != nil || !ok {
					break
				}
			}
		}},
		{"path/child-steps", func() { mustEval(pathQ, ctxFor(orders)) }},
		{"path/descendant-nav", func() { mustEval(descQ, ctxFor(deep)) }},
		{"path/descendant-structjoin", func() { mustEval(joinQ, joinCtx) }},
	}

	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       r.reps,
	}
	for _, b := range bench {
		d := r.timeIt(b.fn)
		rep.Rows = append(rep.Rows, benchRow{Name: b.name, NsPerOp: d.Nanoseconds()})
		fmt.Fprintf(os.Stderr, "xqbench: %-32s %12d ns/op\n", b.name, d.Nanoseconds())
	}

	// Batched-vs-item comparison: each query compiled twice, once on the
	// default vectorized pull path and once with DisableBatching (the exact
	// item-at-a-time engine of PR 2). CI gates on Speedup so a batching
	// regression fails the build.
	compare := []struct {
		name string
		q    string
		opts xqgo.Options
		doc  *xqgo.Document
	}{
		{"paper-query/full", paperQ, xqgo.Options{}, orders},
		{"paper-query/serialize", paperQ, xqgo.Options{}, orders},
		{"path/child-steps", `/Order/OrderLine/Item/ID`, xqgo.Options{}, orders},
		{"pipeline/range-filter-count",
			`count((1 to 200000)[. mod 7 = 0])`, xqgo.Options{}, orders},
		{"pipeline/sum-range", `sum(1 to 1000000)`, xqgo.Options{}, orders},
		{"pipeline/count-range", `count(1 to 1000000)`, xqgo.Options{}, orders},
	}
	var worst float64 = 1e18
	for _, c := range compare {
		bOpts := c.opts
		iOpts := c.opts
		iOpts.DisableBatching = true
		qb := mustCompile(c.q, &bOpts)
		qi := mustCompile(c.q, &iOpts)
		run := func(q *xqgo.Query) func() {
			if c.name == "paper-query/serialize" {
				return func() {
					if err := q.Execute(ctxFor(c.doc), io.Discard); err != nil {
						panic(err)
					}
				}
			}
			return func() { mustEval(q, ctxFor(c.doc)) }
		}
		// Interleave the two engines rep by rep and gate on the median of
		// per-rep ratios: back-to-back cells see the same machine
		// conditions, so load drift cancels out of each ratio, where a
		// ratio of two independently collected minima does not.
		runB, runI := run(qb), run(qi)
		bMin, iMin := int64(1<<62-1), int64(1<<62-1)
		ratios := make([]float64, 0, r.reps)
		for k := 0; k < r.reps; k++ {
			t0 := time.Now()
			runB()
			db := time.Since(t0).Nanoseconds()
			t0 = time.Now()
			runI()
			di := time.Since(t0).Nanoseconds()
			if db < bMin {
				bMin = db
			}
			if di < iMin {
				iMin = di
			}
			ratios = append(ratios, float64(di)/float64(max64(db, 1)))
		}
		sort.Float64s(ratios)
		speedup := ratios[len(ratios)/2]
		if speedup < worst {
			worst = speedup
		}
		rep.Batch = append(rep.Batch, batchRow{
			Name:      c.name,
			BatchedNs: bMin,
			ItemNs:    iMin,
			Speedup:   speedup,
		})
		fmt.Fprintf(os.Stderr, "xqbench: batch-vs-item %-24s batched %10d ns/op  item %10d ns/op  speedup %.2fx\n",
			c.name, bMin, iMin, speedup)
	}

	// Streaming-ingestion comparison: one serialized Bib document, one
	// selective query, three ingestion modes. The projected row must build
	// strictly fewer nodes than the full lazy row, and lazy full parsing
	// must stay within an overhead budget of the eager parser (the
	// no-regression gate on full-parse throughput).
	bibDoc := workload.Bib(workload.BibConfig{Books: 4000, Seed: 7})
	var bibBuf bytes.Buffer
	if err := workload.WriteXML(&bibBuf, bibDoc); err != nil {
		return err
	}
	bibXML := bibBuf.Bytes()
	ingestQ := `/bib/book[@year = "1994"]/title`
	projQ := mustCompile(ingestQ, nil)
	fullQ := mustCompile(ingestQ, &xqgo.Options{DisableProjection: true})

	type ingestMode struct {
		name string
		run  func(record bool) (ttfb int64, counters xqgo.EngineCounters)
	}
	streamRun := func(q *xqgo.Query) func(bool) (int64, xqgo.EngineCounters) {
		return func(record bool) (int64, xqgo.EngineCounters) {
			ctx := xqgo.NewContext().WithStreamingInput(bytes.NewReader(bibXML), "bench:bib")
			var prof *xqgo.Profile
			if record {
				prof = q.NewCountersProfile()
				ctx.WithProfile(prof)
			}
			fw := newFirstByteWriter()
			if err := q.Execute(ctx, fw); err != nil {
				panic(err)
			}
			var c xqgo.EngineCounters
			if record {
				c = prof.Report().Counters
			}
			return fw.firstByte.Nanoseconds(), c
		}
	}
	modes := []ingestMode{
		{"ingest/eager-full", func(record bool) (int64, xqgo.EngineCounters) {
			d, err := xqgo.Parse(bytes.NewReader(bibXML), "bench:bib")
			if err != nil {
				panic(err)
			}
			fw := newFirstByteWriter()
			if err := fullQ.Execute(ctxFor(d), fw); err != nil {
				panic(err)
			}
			return fw.firstByte.Nanoseconds(), xqgo.EngineCounters{DocNodesBuilt: int64(d.NumNodes())}
		}},
		{"ingest/stream-full", streamRun(fullQ)},
		{"ingest/stream-projected", streamRun(projQ)},
	}
	ingestNs := map[string]int64{}
	ingestNodes := map[string]int64{}
	for _, m := range modes {
		var ttfb int64
		var counters xqgo.EngineCounters
		d := r.timeIt(func() { ttfb, _ = m.run(false) })
		_, counters = m.run(true)
		ingestNs[m.name] = d.Nanoseconds()
		ingestNodes[m.name] = counters.DocNodesBuilt
		rep.Ingest = append(rep.Ingest, ingestRow{
			Name:         m.name,
			NsPerOp:      d.Nanoseconds(),
			TTFBNs:       ttfb,
			NodesBuilt:   counters.DocNodesBuilt,
			NodesSkipped: counters.NodesSkipped,
			BytesParsed:  counters.BytesParsedOnDemand,
		})
		fmt.Fprintf(os.Stderr, "xqbench: %-28s %12d ns/op  ttfb %10d ns  nodes %8d  skipped %8d  bytes %9d\n",
			m.name, d.Nanoseconds(), ttfb, counters.DocNodesBuilt, counters.NodesSkipped, counters.BytesParsedOnDemand)
	}

	// Streaming-evaluator comparison: the paper query over a >= 10 MiB
	// serialized Orders feed. The eager baseline parses the whole feed into
	// the store and then evaluates; stream mode evaluates off the live token
	// stream, so its first result should land while the baseline is still
	// parsing. The gate below holds stream-mode TTFB to <= 20% of the eager
	// total runtime, with window buffering bounded.
	lines := 20000
	var ordersXML []byte
	for {
		var buf bytes.Buffer
		if err := workload.WriteXML(&buf, workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 50, Seed: 3})); err != nil {
			return err
		}
		if buf.Len() >= 10<<20 || lines >= 640000 {
			ordersXML = buf.Bytes()
			break
		}
		lines *= 2
	}
	fmt.Fprintf(os.Stderr, "xqbench: stream-eval feed: %d order lines, %.1f MiB\n",
		lines, float64(len(ordersXML))/(1<<20))

	countQ := mustCompile(`count(/Order/OrderLine)`, nil)
	seRun := func(q *xqgo.Query) func(record bool) (int64, xqgo.EngineCounters) {
		return func(record bool) (int64, xqgo.EngineCounters) {
			ctx := xqgo.NewContext().
				WithStreamingInput(bytes.NewReader(ordersXML), "bench:orders").
				WithStreamMode(true)
			var prof *xqgo.Profile
			if record {
				prof = q.NewCountersProfile()
				ctx.WithProfile(prof)
			}
			fw := newFirstByteWriter()
			if err := q.Execute(ctx, fw); err != nil {
				panic(err)
			}
			var c xqgo.EngineCounters
			if record {
				c = prof.Report().Counters
			}
			return fw.firstByte.Nanoseconds(), c
		}
	}
	seModes := []struct {
		name string
		q    *xqgo.Query
		run  func(record bool) (int64, xqgo.EngineCounters)
	}{
		{"stream-eval/eager-baseline", eager, func(bool) (int64, xqgo.EngineCounters) {
			d, err := xqgo.Parse(bytes.NewReader(ordersXML), "bench:orders")
			if err != nil {
				panic(err)
			}
			fw := newFirstByteWriter()
			if err := eager.Execute(ctxFor(d), fw); err != nil {
				panic(err)
			}
			return fw.firstByte.Nanoseconds(), xqgo.EngineCounters{}
		}},
		{"stream-eval/paper-query", stream, seRun(stream)},
		{"stream-eval/identity-path", pathQ, seRun(pathQ)},
		{"stream-eval/count-fallback", countQ, seRun(countQ)},
	}
	seNs := map[string]int64{}
	seTTFB := map[string]int64{}
	sePeak := map[string]int64{}
	for _, m := range seModes {
		var ttfb int64
		d := r.timeIt(func() { ttfb, _ = m.run(false) })
		_, counters := m.run(true)
		class, _ := m.q.Streamability()
		seNs[m.name] = d.Nanoseconds()
		seTTFB[m.name] = ttfb
		sePeak[m.name] = counters.StreamBufferPeakBytes
		rep.StreamEval = append(rep.StreamEval, streamEvalRow{
			Name:       m.name,
			Class:      class.String(),
			NsPerOp:    d.Nanoseconds(),
			TTFBNs:     ttfb,
			PeakBuffer: counters.StreamBufferPeakBytes,
			Windows:    counters.StreamWindows,
			Results:    counters.StreamResults,
			Fallbacks:  counters.StreamFallbacks,
		})
		fmt.Fprintf(os.Stderr, "xqbench: %-28s %12d ns/op  ttfb %10d ns  peak-buf %8d B  windows %8d  class %s\n",
			m.name, d.Nanoseconds(), ttfb, counters.StreamBufferPeakBytes, counters.StreamWindows, class)
	}

	// Trace-overhead comparison: the paper query in stream mode, crossed
	// over {profile on/off} x {trace on/off}. Profiled and traced is the
	// full observability configuration (op spans synthesized from the
	// profile at Finish); unprofiled and traced is the skeleton — just the
	// execute/rewrite/projection stage spans, which is all the machinery
	// the off path's nil checks guard. Gates below hold tracing to <= 5%
	// over the same profiled run and the skeleton to the noise floor
	// (<= 1%), on medians of per-rep ratios. A ~2 MiB feed keeps single
	// runs short enough to repeat many times.
	var traceXML []byte
	{
		var buf bytes.Buffer
		if err := workload.WriteXML(&buf, workload.Orders(workload.OrdersConfig{Lines: 16000, Sellers: 50, Seed: 4})); err != nil {
			return err
		}
		traceXML = buf.Bytes()
	}
	traceRun := func(profiled, traced bool) func() {
		return func() {
			ctx := xqgo.NewContext().
				WithStreamingInput(bytes.NewReader(traceXML), "bench:orders").
				WithStreamMode(true)
			if profiled {
				ctx.WithProfile(stream.NewCountersProfile())
			}
			var tr *xqgo.Trace
			if traced {
				tr = xqgo.NewTrace()
				ctx.WithTrace(tr)
			}
			if err := stream.Execute(ctx, io.Discard); err != nil {
				panic(err)
			}
			if tr != nil {
				if d := tr.Finish(); len(d.Spans) == 0 {
					panic("traced run produced no spans")
				}
			}
		}
	}
	traceModes := []struct {
		name              string
		profiled, tracing bool
	}{
		{"trace/off", false, false},
		{"trace/skeleton", false, true},
		{"trace/untraced-profiled", true, false},
		{"trace/traced-profiled", true, true},
	}
	// Interleaved min-of-reps timing: each rep runs all four configurations
	// back to back (so clock drift and cache warmth cancel out of the
	// on/off ratios the gates compare), and each configuration reports its
	// fastest rep — the minimum discards scheduler and neighbor
	// interference, which is random, while a real tracing overhead is
	// systematic and survives in every rep.
	traceReps := r.reps
	if traceReps < 7 {
		traceReps = 7
	}
	// The in-rep order rotates so no configuration always runs right after
	// the allocation-heavy traced mode and absorbs its GC debt; each rep
	// still collects exactly one sample per mode, keeping the pairing the
	// ratio gates need.
	samples := make([][]time.Duration, len(traceModes))
	for rep := 0; rep < traceReps; rep++ {
		for s := range traceModes {
			i := (s + rep) % len(traceModes)
			m := traceModes[i]
			fn := traceRun(m.profiled, m.tracing)
			start := time.Now()
			fn()
			samples[i] = append(samples[i], time.Since(start))
		}
	}
	// Per-rep overhead ratios for the gates, computed before the sort below
	// destroys the rep pairing: traced vs untraced (both profiled) and
	// skeleton vs fully off ran back to back within each rep.
	medTraced := medianRatio(samples[3], samples[2])
	medSkeleton := medianRatio(samples[1], samples[0])
	traceNs := map[string]int64{}
	for i, m := range traceModes {
		ds := samples[i]
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		best := ds[0].Nanoseconds()
		traceNs[m.name] = best
		rep.TraceOverhead = append(rep.TraceOverhead, benchRow{Name: m.name, NsPerOp: best})
		fmt.Fprintf(os.Stderr, "xqbench: %-28s %12d ns/op\n", m.name, best)
	}

	// Governance overhead: the same work ungoverned versus with a generous
	// per-query memory budget attached — every hot path charges it (store
	// growth, batch pools, FLWOR rounds, output), but the cap never trips,
	// so the rows time pure accounting cost. Two shapes: the paper query
	// over an in-store document (batch/FLWOR charging) and a streamed count
	// (per-increment parse charging, the tightest loop). Interleaved per-rep
	// ratios, gated at the median, like the trace rows.
	govCases := []struct {
		name string
		run  func(budget bool)
	}{
		{"governance/paper-query-store", func(budget bool) {
			ctx := ctxFor(orders)
			if budget {
				ctx.WithMemoryBudget(1 << 40)
			}
			mustEval(stream, ctx)
		}},
		{"governance/streamed-count", func(budget bool) {
			ctx := xqgo.NewContext().WithStreamingInput(bytes.NewReader(traceXML), "bench:orders")
			if budget {
				ctx.WithMemoryBudget(1 << 40)
			}
			if err := countQ.Execute(ctx, io.Discard); err != nil {
				panic(err)
			}
		}},
	}
	govReps := r.reps
	if govReps < 7 {
		govReps = 7
	}
	worstGov := 0.0
	for _, c := range govCases {
		offs := make([]time.Duration, 0, govReps)
		ons := make([]time.Duration, 0, govReps)
		for rep := 0; rep < govReps; rep++ {
			// Alternate which side runs first so neither always absorbs
			// the other's GC debt.
			first := rep%2 == 0
			for _, budget := range []bool{first, !first} {
				t0 := time.Now()
				c.run(budget)
				d := time.Since(t0)
				if budget {
					ons = append(ons, d)
				} else {
					offs = append(offs, d)
				}
			}
		}
		overhead := medianRatio(ons, offs)
		if overhead > worstGov {
			worstGov = overhead
		}
		offMin, onMin := offs[0], ons[0]
		for k := 1; k < govReps; k++ {
			if offs[k] < offMin {
				offMin = offs[k]
			}
			if ons[k] < onMin {
				onMin = ons[k]
			}
		}
		rep.Governance = append(rep.Governance, govRow{
			Name:     c.name,
			OffNs:    offMin.Nanoseconds(),
			OnNs:     onMin.Nanoseconds(),
			Overhead: overhead,
		})
		fmt.Fprintf(os.Stderr, "xqbench: %-28s off %10d ns/op  governed %10d ns/op  overhead %.3fx\n",
			c.name, offMin.Nanoseconds(), onMin.Nanoseconds(), overhead)
	}

	// Morsel worker scaling: the three parallelized loop families (path-step
	// range scans, structural-join postings feeds, FLWOR tuple pipelines)
	// each swept over 1/2/4/8 workers against a no-workers baseline, on a
	// document large enough that every loop actually splits into rounds.
	// Interleaved min-of-reps, like the trace rows: each rep runs every
	// (query, workers) cell back to back so drift cancels out of the ratios.
	scaleDoc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 200000, Seed: 2}))
	scaleCases := []struct {
		name string
		q    *xqgo.Query
	}{
		{"path/descendant-structjoin", mustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceTwig})},
		{"path/descendant-scan", mustCompile(`count(//a)`, nil)},
		{"flwor/sum-tuples", mustCompile(`sum(for $i in 1 to 300000 return $i mod 7)`, nil)},
	}
	scaleWorkers := []int{0, 1, 2, 4, 8}
	// One reused context per worker level: the structural-join index cache is
	// per-context, so a fresh context each run would time the index build,
	// not the join. Warming the join query once per context builds it.
	scaleCtxs := make([]*xqgo.Context, len(scaleWorkers))
	for j, w := range scaleWorkers {
		scaleCtxs[j] = ctxFor(scaleDoc)
		if w > 0 {
			scaleCtxs[j].WithWorkers(w)
		}
		mustEval(scaleCases[0].q, scaleCtxs[j])
	}
	// The 1-worker row runs the same sequential code as the baseline (one
	// extra branch), so any gap between them is measurement noise; double
	// the reps here so min-of-reps converges the two cells before the 5%
	// overhead gate compares them.
	scaleReps := 2 * r.reps
	if scaleReps < 8 {
		scaleReps = 8
	}
	scaleNs := make([][]int64, len(scaleCases))
	for i := range scaleNs {
		scaleNs[i] = make([]int64, len(scaleWorkers))
		for j := range scaleNs[i] {
			scaleNs[i][j] = 1<<62 - 1
		}
	}
	// Per-rep baseline-vs-1-worker ratios for the overhead gate: the two
	// cells run back to back inside each rep, so machine load drift cancels
	// out of the ratio; the median over reps is far more stable than the
	// ratio of two independent minima.
	// Worker cells rotate within each rep for the same reason as the trace
	// modes: with a fixed order the 1-worker cell always runs right after
	// the baseline and inherits whatever GC debt it left behind.
	overheadRatios := make([][]float64, len(scaleCases))
	for rep := 0; rep < scaleReps; rep++ {
		for i, c := range scaleCases {
			repNs := make([]int64, len(scaleWorkers))
			for jj := range scaleWorkers {
				j := (jj + rep) % len(scaleWorkers)
				t0 := time.Now()
				mustEval(c.q, scaleCtxs[j])
				repNs[j] = time.Since(t0).Nanoseconds()
				if repNs[j] < scaleNs[i][j] {
					scaleNs[i][j] = repNs[j]
				}
			}
			overheadRatios[i] = append(overheadRatios[i], float64(repNs[1])/float64(repNs[0]))
		}
	}
	rep.NumCPU = runtime.NumCPU()
	oneWorkerNs := make([]int64, len(scaleCases))
	joinSpeedup8 := 0.0
	for i, c := range scaleCases {
		base := scaleNs[i][1] // the workers=1 row
		oneWorkerNs[i] = base
		for j, w := range scaleWorkers {
			speedup := 0.0
			if w >= 1 {
				speedup = float64(base) / float64(scaleNs[i][j])
			}
			if c.name == "path/descendant-structjoin" && w == 8 {
				joinSpeedup8 = speedup
			}
			rep.Scaling = append(rep.Scaling, scalingRow{
				Name: c.name, Workers: w, NsPerOp: scaleNs[i][j], Speedup: speedup,
			})
			fmt.Fprintf(os.Stderr, "xqbench: scaling %-28s workers %d %12d ns/op  %.2fx\n",
				c.name, w, scaleNs[i][j], speedup)
		}
	}

	// Join-strategy comparison over the shapes where the "demythization"
	// literature says holistic and binary plans genuinely diverge: a deep
	// chain (many nested matches per edge, so the binary plan materializes
	// large intermediate pair lists), a wide shallow twig (joins are cheap,
	// navigation and both joins should be close), a low-selectivity leaf
	// (the binary plan pays for every (a,b) pair before the rare leaf cuts
	// the output down; the holistic join never materializes them), and a
	// branching twig whose predicate navigation tests on every candidate
	// while the join reduces it by one semi-join.
	twigShapes := []struct {
		name  string
		query string
		chain string // the query's descendant chain, for the binary column
		pred  string // a child-edge predicate on the chain's first step, or ""
		doc   *xqgo.Document
	}{
		{"twig/deep-chain", `count(//a//b//c)`, "a//b//c", "",
			xqgo.FromStore(workload.Deep(workload.DeepConfig{
				Nodes: 60000, MaxDepth: 40, Fanout: 2, Seed: 3}))},
		{"twig/wide-shallow", `count(//a//b)`, "a//b", "",
			xqgo.FromStore(workload.Deep(workload.DeepConfig{
				Nodes: 60000, MaxDepth: 6, Fanout: 24, Seed: 4}))},
		{"twig/low-selectivity-leaf", `count(//a//b//z)`, "a//b//z", "",
			xqgo.FromStore(workload.Deep(workload.DeepConfig{
				Nodes: 60000, Names: []string{"a", "a", "a", "b", "b", "b", "z"}, Seed: 5}))},
		{"twig/branch-predicate", `count(//a[b]//d)`, "a//d", "b",
			xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 6}))},
	}
	twigWinsSomewhere := false
	for _, sh := range twigShapes {
		strategies := []xqgo.Strategy{xqgo.ForceNavigation, xqgo.ForceTwig, xqgo.StrategyAuto}
		plans := make([]*xqgo.Query, len(strategies))
		ctxs := make([]*xqgo.Context, len(strategies))
		for i, st := range strategies {
			plans[i] = mustCompile(sh.query, &xqgo.Options{Strategy: st})
			ctxs[i] = xqgo.NewContext().WithContextNode(sh.doc)
		}
		// The Auto plan warms up under a counters profile so the row can
		// report the strategy the cost model actually picked; the choice is
		// made on the first run (cold index, no feedback) and cached for
		// the execution context, exactly like a server's first request.
		prof := plans[2].NewCountersProfile()
		ctxs[2].WithProfile(prof)
		for i := range plans {
			mustEval(plans[i], ctxs[i]) // warm the per-context index cache
		}
		ctxs[2].WithProfile(nil)
		autoChoice := ""
		for _, op := range prof.Report().Operators {
			if op.Strategy != "" {
				autoChoice = op.Strategy
			}
		}
		chain, err := structjoin.ParseTwig(sh.chain)
		if err != nil {
			return err
		}
		idx := structjoin.BuildIndex(sh.doc.Store())
		lists := chain.Streams(idx)
		binary := func() {
			cur := lists[0]
			if sh.pred != "" {
				cur = structjoin.SemiJoin(cur, idx.Elements(xdm.LocalName(sh.pred)), true)
			}
			for _, l := range lists[1:] {
				cur = structjoin.DistinctDescendants(structjoin.StackTreeDesc(cur, l, false))
			}
		}
		// Cells, interleaved per rep: navigation, twig, Auto, raw binary.
		mins := []int64{1 << 62, 1 << 62, 1 << 62, 1 << 62}
		ratios := make([]float64, 0, r.reps)
		for k := 0; k < r.reps; k++ {
			var cell [4]int64
			for i := range cell {
				t0 := time.Now()
				if i < len(plans) {
					mustEval(plans[i], ctxs[i])
				} else {
					binary()
				}
				cell[i] = time.Since(t0).Nanoseconds()
				if cell[i] < mins[i] {
					mins[i] = cell[i]
				}
			}
			best := min64(cell[0], cell[1])
			ratios = append(ratios, float64(cell[2])/float64(max64(best, 1)))
		}
		sort.Float64s(ratios)
		row := twigRow{
			Name: sh.name, Query: sh.query,
			NavNs: mins[0], TwigNs: mins[1], AutoNs: mins[2], BinaryNs: mins[3],
			AutoChoice: autoChoice, AutoVsBest: ratios[len(ratios)/2],
		}
		rep.TwigVsBinary = append(rep.TwigVsBinary, row)
		fmt.Fprintf(os.Stderr,
			"xqbench: %-28s nav %10d  binary %10d  twig %10d  auto %10d ns/op  choice=%s  auto/best %.3fx\n",
			sh.name, row.NavNs, row.BinaryNs, row.TwigNs, row.AutoNs, row.AutoChoice, row.AutoVsBest)
		if row.AutoChoice == "twig-join" && row.TwigNs < row.BinaryNs {
			twigWinsSomewhere = true
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Every gate is evaluated; each failure is reported on stderr and all
	// of them are returned together.
	var failed []error
	fail := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintln(os.Stderr, "xqbench: gate failed:", err)
		failed = append(failed, err)
	}
	// Regression gate: batching must never make a compared query more than
	// 15% slower than the item-at-a-time baseline (medians of interleaved
	// per-rep ratios keep CI noise below that).
	if worst < 0.85 {
		fail("batching regression: worst batched/item speedup %.2fx < 0.85x", worst)
	}
	// Ingestion gates: projection must actually reduce materialization, and
	// lazy full parsing (projection off, everything materialized on demand)
	// must stay within 2x of the eager parser on the same input — the
	// no-regression guard for plain full-parse throughput.
	if pn, fn := ingestNodes["ingest/stream-projected"], ingestNodes["ingest/stream-full"]; pn >= fn {
		fail("projection regression: projected ingestion built %d nodes, full built %d", pn, fn)
	}
	if sn, en := ingestNs["ingest/stream-full"], ingestNs["ingest/eager-full"]; float64(sn) > 2.0*float64(en) {
		fail("full-parse throughput regression: lazy full ingestion %d ns/op > 2x eager %d ns/op", sn, en)
	}
	// Streaming-evaluator gates: the paper query must stay streamable, its
	// first result must land within 20% of the eager total runtime (the
	// whole point of evaluating off the live token stream), and window
	// buffering must stay a small fraction of the feed.
	if cl, reason := stream.Streamability(); !cl.Streamable() {
		fail("paper query no longer streamable: %s", reason)
	}
	if ttfb, et := seTTFB["stream-eval/paper-query"], seNs["stream-eval/eager-baseline"]; float64(ttfb) > 0.20*float64(et) {
		fail("streaming TTFB regression: first byte after %d ns > 20%% of eager total %d ns", ttfb, et)
	}
	if peak := sePeak["stream-eval/paper-query"]; peak <= 0 || peak > int64(len(ordersXML)/100) {
		fail("stream-eval peak buffer %d B out of bounds for a %d B feed", peak, len(ordersXML))
	}
	// Tracing gates. Per-request tracing synthesizes spans from the profile
	// after the run, so with tracing on the whole execution may cost at most
	// 5% over the identical untraced run. The skeleton row (tracing enabled
	// with no profile) does strictly more work than the real off path — the
	// off path is only nil checks — so holding the skeleton to 1% bounds the
	// off-path cost from above. Both gates compare the median of per-rep
	// back-to-back ratios, so load drift on a shared CI machine cancels
	// out; a real regression (say, a span per window) is systematic and
	// shifts every rep's ratio.
	if medTraced > 1.05 {
		fail("tracing-on overhead regression: traced median %.3fx over untraced (min %d vs %d ns/op)",
			medTraced, traceNs["trace/traced-profiled"], traceNs["trace/untraced-profiled"])
	}
	// 1.03 is the scale-invariant equivalent of the original 1% + 2ms
	// absolute slack at this row's ~140ms magnitude; the skeleton
	// measurably costs ~1.5% (see any BENCH artifact), and what the gate
	// bounds is the off path underneath it, which does strictly less.
	if medSkeleton > 1.03 {
		fail("tracing off-path overhead regression: skeleton spans median %.3fx over untraced (min %d vs %d ns/op)",
			medSkeleton, traceNs["trace/skeleton"], traceNs["trace/off"])
	}
	// Worker-scaling gates. A single worker means every morsel check
	// short-circuits, so the 1-worker row may cost at most 5% over the
	// baseline with workers never configured — the no-regression guard for
	// sequential callers. Gated on the median of per-rep back-to-back
	// ratios (drift-immune), not the ratio of two independent minima. The
	// 3x speedup gate on the structural-join row only applies where the
	// hardware has at least 8 CPUs; on smaller machines the sweep still
	// runs (correctness and overhead stay gated) but a speedup is
	// physically impossible.
	for i, c := range scaleCases {
		rs := append([]float64(nil), overheadRatios[i]...)
		sort.Float64s(rs)
		if med := rs[len(rs)/2]; med > 1.05 {
			fail("worker overhead regression: %s at 1 worker median %.3fx over baseline (min %d vs %d ns/op)",
				c.name, med, oneWorkerNs[i], scaleNs[i][0])
		}
	}
	// Governance gate: charging a never-tripping budget along every hot
	// path may cost at most 3% over the ungoverned run (medians of
	// interleaved per-rep ratios, so CI load drift cancels out).
	if worstGov > 1.03 {
		fail("governance overhead regression: worst governed/ungoverned median %.3fx > 1.03x", worstGov)
	}
	if rep.NumCPU >= 8 && joinSpeedup8 < 3.0 {
		fail("worker scaling regression: path/descendant-structjoin at 8 workers %.2fx < 3x over 1 worker",
			joinSpeedup8)
	}
	// Join-strategy gates. Cost-based Auto may never sit more than 5% over
	// the best manual strategy (navigation or twig) on any shape (median of
	// per-rep ratios), and the cost model must pick the twig join somewhere
	// it beats the raw binary chain — otherwise the holistic operator is
	// dead weight.
	for _, row := range rep.TwigVsBinary {
		if row.AutoVsBest > 1.05 {
			fail("plan-choice regression: %s auto median %.3fx over best manual strategy (auto %d, nav %d, twig %d ns/op)",
				row.Name, row.AutoVsBest, row.AutoNs, row.NavNs, row.TwigNs)
		}
	}
	if !twigWinsSomewhere {
		fail("plan-choice regression: no shape had Auto pick the twig join where it beats the binary plan")
	}
	return errors.Join(failed...)
}

// firstByteWriter discards output, recording the elapsed time from creation
// to the first written byte (the service-visible time-to-first-answer).
type firstByteWriter struct {
	start     time.Time
	firstByte time.Duration
}

func newFirstByteWriter() *firstByteWriter {
	return &firstByteWriter{start: time.Now()}
}

func (f *firstByteWriter) Write(p []byte) (int, error) {
	if f.firstByte == 0 && len(p) > 0 {
		f.firstByte = time.Since(f.start)
	}
	return len(p), nil
}

// medianRatio reports the median of element-wise num[k]/den[k] ratios over
// samples collected rep by rep. Because the two configurations ran back to
// back within each rep, machine load drift hits both sides of a ratio
// equally and cancels, where the ratio of two independently collected
// minima is exposed to whichever cell happened to catch a quiet moment.
func medianRatio(num, den []time.Duration) float64 {
	rs := make([]float64, len(num))
	for k := range num {
		rs[k] = float64(num[k]) / float64(max64(int64(den[k]), 1))
	}
	sort.Float64s(rs)
	return rs[len(rs)/2]
}
