package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"xqgo/internal/service"
)

// The ingest workload: the paper's messaging use case. One closed-loop
// client posts freshly generated XML messages as streamed POST /query
// requests (stream mode is on by default for XML bodies). 70% are Orders
// messages queried with Q1 (bounded-buffer streaming), 30% Bib messages
// queried with an order-by FLWOR (store-required: projected lazy parse).
// Message sizes are log-uniform from 2 KiB to 512 KiB.

const (
	ingestCycle    = 100 // operations per stratified cycle
	ingestOrders   = 70  // Orders messages per cycle
	ingestSellers  = 5   // distinct Q1 texts
	ingestMinBytes = 2 << 10
	ingestMaxBytes = 512 << 10
)

type ingestOp struct {
	orders bool
	size   int // target body bytes
	seller int
}

// ingestOps is one cycle of the client's sequence: exactly 70 Orders and 30
// Bib messages, each kind with stratified log-uniform sizes, shuffled.
// Operation i of a run is cycle[i%ingestCycle] with a body generated from
// (seed, i), so bodies never repeat while the size mix stays fixed.
func ingestOps(seed int64) []ingestOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []ingestOp
	for _, s := range stratifiedLogUniform(rng, ingestOrders, ingestMinBytes, ingestMaxBytes) {
		ops = append(ops, ingestOp{orders: true, size: s, seller: 1 + rng.Intn(ingestSellers)})
	}
	for _, s := range stratifiedLogUniform(rng, ingestCycle-ingestOrders, ingestMinBytes, ingestMaxBytes) {
		ops = append(ops, ingestOp{size: s})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// message is one generated request: its body, query and reference answer.
type message struct {
	op    ingestOp
	query string
	body  []byte
	ref   string
}

func genMessage(seed int64, op ingestOp, i int) message {
	rng := opRand(seed, 0, i)
	m := message{op: op}
	if op.orders {
		o := genOrders(rng, int64(i), max(1, op.size/orderLineBytes), 10)
		m.query, m.body = q1Text(op.seller), o.XML
		m.ref = refLineItems(o.Lines, op.seller)
	} else {
		b := genBib(rng, max(1, op.size/bookBytes))
		m.query, m.body = ingestBibText, b.XML
		m.ref = refIngestBib(b.Books)
	}
	return m
}

// post sends one message and checks the reply.
func (c *client) post(m message) (bool, string) {
	status, body := c.do("POST", streamQueryTarget(m.query), "application/xml", bytes.NewReader(m.body))
	if status != http.StatusOK {
		return false, fmt.Sprintf("status %d: %.200s", status, body)
	}
	if string(body) != m.ref {
		return false, fmt.Sprintf("output differs from reference (%d vs %d bytes)", len(body), len(m.ref))
	}
	return true, ""
}

// warmIngest sends one small message per query text, so the plans are
// compiled and cached before measurement.
func warmIngest(c *client, seed int64) error {
	for s := 0; s <= ingestSellers; s++ {
		op := ingestOp{orders: s > 0, size: 4 << 10, seller: s}
		if ok, why := c.post(genMessage(seed, op, -1-s)); !ok {
			return fmt.Errorf("warm-up: %s", why)
		}
	}
	return nil
}

type ingestRun struct {
	n     int
	bytes int64
	busy  time.Duration // time inside the service: the sum of latencies
	wall  time.Duration
	lat   []float64 // ms, per operation
	sizes []int     // body bytes, per operation
	t     tally
}

// cycleRates returns MB/s and messages/s over service time for each
// complete cycle of the run: every cycle carries the same size mix, so
// their median discounts host interference that hits a few of them.
func (r ingestRun) cycleRates() (mbs, ops []float64) {
	for c := 0; (c+1)*ingestCycle <= len(r.lat); c++ {
		var ms float64
		var b int
		for i := c * ingestCycle; i < (c+1)*ingestCycle; i++ {
			ms += r.lat[i]
			b += r.sizes[i]
		}
		mbs = append(mbs, float64(b)/1e3/ms)
		ops = append(ops, ingestCycle*1e3/ms)
	}
	return mbs, ops
}

// ingestLoop runs the operations of w.
func ingestLoop(c *client, seed int64, cycle []ingestOp, w window, tr *Tracer) ingestRun {
	var r ingestRun
	start := time.Now()
	for i := w.first; w.more(start, r.n); i++ {
		op := tr.Start("ingest.op", -1, int64(i))
		g := tr.Start("bench.generate", op, int64(i))
		m := genMessage(seed, cycle[i%len(cycle)], i)
		tr.End(g)
		s := tr.Start("service.http", op, int64(i))
		t := time.Now()
		ok, why := c.post(m)
		lat := time.Since(t)
		tr.End(s)
		tr.End(op)
		r.t.add(ok, why)
		r.n++
		r.bytes += int64(len(m.body))
		r.busy += lat
		r.lat = append(r.lat, float64(lat.Nanoseconds())/1e6)
		r.sizes = append(r.sizes, len(m.body))
	}
	r.wall = time.Since(start)
	return r
}

func runIngest(cfg config) (report, error) {
	cycle := ingestOps(cfg.seed)
	var svc *service.Service
	var c *client
	setupS, err := timeSetup(41, 5, func() error {
		svc = newService()
		c = newClient(svc)
		return warmIngest(c, cfg.seed)
	})
	if err != nil {
		return report{}, err
	}
	if !cfg.trace {
		r := ingestLoop(c, cfg.seed, cycle, timed(cfg.seconds, minLatencySamples), nil)
		busy := r.busy.Seconds()
		mbs, ops := r.cycleRates()
		m := map[string]metric{
			"setup_s":    {setupS, "s"},
			"input_mb_s": {median(mbs), "MB/s"},
			"ops_per_s":  {median(ops), "1/s"},
		}
		if err := latencyMetrics(m, r.lat); err != nil {
			return report{}, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		m["peak_rss_mb"] = metric{rss, "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: ingest %d messages, %.1f MB, busy %.2fs of %.2fs wall\n", r.n, float64(r.bytes)/1e6, busy, r.wall.Seconds())
		return finish(r.t, m), nil
	}

	// Traced: blocks of operations untraced and then traced, for the
	// tracing overhead; then a replay of sampled messages through each layer.
	const block = 40
	tr := newTracer()
	var t tally
	plain, traced, err := interleave(cfg.seconds, tr, func(b int, tr *Tracer) (time.Duration, error) {
		r := ingestLoop(c, cfg.seed, cycle, window{first: b * block, count: block}, tr)
		t.merge(r.t)
		return r.wall, nil
	})
	if err != nil {
		return report{}, err
	}

	// Sample up to 12 Orders and 6 Bib messages spread over the size range.
	var ord, bib []int
	for i, op := range cycle {
		if op.orders {
			ord = append(ord, i)
		} else {
			bib = append(bib, i)
		}
	}
	set := &replaySet{workload: "ingest", seed: cfg.seed}
	var shared []int
	for _, idx := range append(spread(cycle, ord, 12), spread(cycle, bib, 6)...) {
		m := genMessage(cfg.seed, cycle[idx], idx)
		doc := set.addDoc(fmt.Sprintf("msg%d", idx), m.body)
		if m.op.orders {
			set.queries = append(set.queries, replayQuery{template: "q1", text: m.query, doc: doc, ref: m.ref})
			set.stream = append(set.stream, replayStream{name: "q1", text: m.query, input: doc, ref: m.ref})
			set.service = append(set.service, streamServiceOp("q1", m.query, doc))
			shared = append(shared, doc)
		} else {
			set.queries = append(set.queries, replayQuery{template: "bib", text: m.query, doc: doc, ref: m.ref})
			set.projected = append(set.projected, replayStream{name: "bib", text: m.query, input: doc, ref: m.ref})
			set.service = append(set.service, streamServiceOp("bib", m.query, doc))
		}
	}
	// Shared gain: the five Q1 texts as subscriptions over the largest
	// sampled Orders message.
	if len(shared) > 0 {
		set.sharedInput = shared[len(shared)-1]
		for s := 1; s <= ingestSellers; s++ {
			set.sharedNames = append(set.sharedNames, fmt.Sprintf("q1-seller%d", s))
			set.sharedTexts = append(set.sharedTexts, q1Text(s))
		}
		set.twigDoc = shared[len(shared)-1]
	}
	set.chain, set.branch, set.chainRef = "OrderLine//Item//ID", "OrderLine[SellersID]//Quantity", -1
	m, err := replay(set, tr, svc, plain, traced, &t)
	if err != nil {
		return report{}, err
	}
	return finish(t, m), nil
}

// spread picks up to k of the operations idx, evenly over their sorted
// sizes.
func spread(cycle []ingestOp, idx []int, k int) []int {
	sort.Slice(idx, func(a, b int) bool { return cycle[idx[a]].size < cycle[idx[b]].size })
	if len(idx) <= k {
		return idx
	}
	out := make([]int, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, idx[j*(len(idx)-1)/(k-1)])
	}
	return out
}
