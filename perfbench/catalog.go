package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xqgo/internal/service"
)

// The catalog workload: the stored-document query service. Set-up registers
// Orders, Deep, Bib and TradingPartners with PUT /documents/{name}; then two
// closed-loop clients send POST /query JSON requests. Templates take
// external variables, so most requests hit the plan cache; about 10% are
// adhoc texts (plan-cache misses); about 2% of all operations replace the
// Orders document while the other client queries.

const (
	catalogClients  = 2
	catalogVariants = 4 // distinct Orders documents the updates cycle through
	catalogLines    = 10000
	catalogSellers  = 50
	deepNodes       = 60000
	bibBooks        = 5000
	tpPartners      = 300
)

// catalogMix is one block of 100 queries per client: the kinds are weighted
// so that no template takes more than about half of the service's busy
// time, and so that the median query latency falls inside the q1 and adhoc
// latencies rather than in the gap between them and the faster chain, agg
// and tp queries, where it jumped from run to run. Client 0's blocks also
// hold catalogUpdates document replaces (2% of all operations).
var catalogMix = []struct {
	kind  string
	count int
}{
	{"q1", 35}, {"agg", 17}, {"chain", 15}, {"branch", 6}, {"bib", 9}, {"tp", 8}, {"adhoc", 10},
}

const catalogUpdates = 4

type catalogOp struct {
	kind   string
	seller int
	min    int // bib price floor
	typ    string
	family int // adhoc family
	id     int // adhoc request id, unique per run
	qty    int
}

// catalogOpAt is client c's i-th operation: a pure function of (seed, c, i).
// Every block has exactly the mix's composition, in a shuffled order, so
// every seed does the same amount of work.
func catalogOpAt(seed int64, c, i int) catalogOp {
	var deck []string
	for _, k := range catalogMix {
		for j := 0; j < k.count; j++ {
			deck = append(deck, k.kind)
		}
	}
	if c == 0 {
		for j := 0; j < catalogUpdates; j++ {
			deck = append(deck, "update")
		}
	}
	block := i / len(deck)
	brng := opRand(seed, 1+c, -1-block)
	brng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	rng := opRand(seed, 1+c, i)
	return catalogOp{
		kind:   deck[i%len(deck)],
		seller: 1 + rng.Intn(catalogSellers),
		min:    60 + rng.Intn(36),
		typ:    []string{"LOCAL", "REMOTE"}[rng.Intn(2)],
		family: rng.Intn(3),
		id:     c*100_000_000 + i,
		qty:    1 + rng.Intn(20),
	}
}

// catalogData holds the generated documents and their reference answers.
type catalogData struct {
	orders []Orders // variants; version v of the catalog document is orders[v%catalogVariants]
	bib    Bib
	deep   Deep
	tp     TP

	q1Ref, aggRef [][]string // [variant][seller]
	bibRef        map[int]string
	tpRef         map[string]string
	chainRef      string
	branchRef     string
	chainEmb      int64
}

// genCatalog generates the catalog documents at the given sizes (Orders
// lines, Deep elements, books, partners) and their reference answers.
func genCatalog(seed int64, lines, nodes, books, partners int) *catalogData {
	d := &catalogData{bibRef: map[int]string{}, tpRef: map[string]string{}}
	for v := 0; v < catalogVariants; v++ {
		o := genOrders(rand.New(rand.NewSource(seed*31+int64(v))), 4711+int64(v), lines, catalogSellers)
		d.orders = append(d.orders, o)
		q1, agg := make([]string, catalogSellers+1), make([]string, catalogSellers+1)
		for s := 1; s <= catalogSellers; s++ {
			q1[s], agg[s] = refLineItems(o.Lines, s), refSellerSum(o.Lines, s)
		}
		d.q1Ref, d.aggRef = append(d.q1Ref, q1), append(d.aggRef, agg)
	}
	d.bib = genBib(rand.New(rand.NewSource(seed*31+101)), books)
	d.deep = genDeep(rand.New(rand.NewSource(seed*31+102)), nodes)
	d.tp = genTP(rand.New(rand.NewSource(seed*31+103)), partners)
	for m := 60; m < 96; m++ {
		d.bibRef[m] = refBibTemplate(d.bib.Books, m)
	}
	for _, typ := range []string{"LOCAL", "REMOTE"} {
		d.tpRef[typ] = refTP(d.tp.Partners, typ)
	}
	chain, branch, emb := deepCounts(d.deep.Nodes)
	d.chainRef, d.branchRef, d.chainEmb = fmt.Sprint(chain), fmt.Sprint(branch), emb
	return d
}

// request is the JSON query for op, and whether its answer depends on the
// Orders version.
func (op catalogOp) request() (qb queryBody, orders bool) {
	switch op.kind {
	case "q1":
		return queryBody{Query: tmplQ1, Doc: "orders", Vars: map[string]any{"seller": fmt.Sprint(op.seller)}}, true
	case "agg":
		return queryBody{Query: tmplAgg, Doc: "orders", Vars: map[string]any{"seller": fmt.Sprint(op.seller)}}, true
	case "chain":
		return queryBody{Query: tmplChain, Doc: "deep"}, false
	case "branch":
		return queryBody{Query: tmplBranch, Doc: "deep"}, false
	case "bib":
		return queryBody{Query: tmplBib, Doc: "bib", Vars: map[string]any{"min": op.min}}, false
	case "tp":
		return queryBody{Query: tmplTP, Doc: "tp", Vars: map[string]any{"type": op.typ}}, false
	}
	switch op.family {
	case 0:
		return queryBody{Query: adhocHitsText(op.id, op.seller, op.qty), Doc: "orders"}, true
	case 1:
		return queryBody{Query: adhocCountText(op.id, op.seller), Doc: "orders"}, true
	default:
		return queryBody{Query: adhocBooksText(op.id, op.min), Doc: "bib"}, false
	}
}

// ref is op's reference answer over Orders variant v.
func (d *catalogData) ref(op catalogOp, v int) string {
	lines := d.orders[v].Lines
	switch op.kind {
	case "q1":
		return d.q1Ref[v][op.seller]
	case "agg":
		return d.aggRef[v][op.seller]
	case "chain":
		return d.chainRef
	case "branch":
		return d.branchRef
	case "bib":
		return d.bibRef[op.min]
	case "tp":
		return d.tpRef[op.typ]
	}
	switch op.family {
	case 0:
		return refAdhocHits(lines, op.id, op.seller, op.qty)
	case 1:
		return refAdhocCount(lines, op.id, op.seller)
	default:
		return refAdhocBooks(d.bib.Books, op.id, op.min)
	}
}

// matches reports whether got is op's answer over some Orders version in
// [lo, hi] (any version, for answers that do not depend on Orders).
func (d *catalogData) matches(op catalogOp, got string, lo, hi int, dependsOnOrders bool) bool {
	if !dependsOnOrders {
		lo, hi = 0, 0
	}
	for v := lo; v <= hi; v++ {
		if got == d.ref(op, v%catalogVariants) {
			return true
		}
	}
	return false
}

// versions tracks the Orders document: a query may see any version between
// the last replace that finished before it started and the last replace
// that began before it ended.
type versions struct{ started, committed atomic.Int64 }

type kindStat struct {
	n    int
	busy time.Duration
	lat  []float64 // ms
}

type catalogRun struct {
	qlat     []float64 // query latencies, ms
	ulat     []float64 // update latencies, ms
	reqBytes int64
	wall     time.Duration
	t        tally
	kinds    map[string]*kindStat
}

func (r *catalogRun) merge(o *catalogRun) {
	r.qlat = append(r.qlat, o.qlat...)
	r.ulat = append(r.ulat, o.ulat...)
	r.reqBytes += o.reqBytes
	r.t.merge(o.t)
	for k, s := range o.kinds {
		if r.kinds[k] == nil {
			r.kinds[k] = &kindStat{}
		}
		r.kinds[k].n += s.n
		r.kinds[k].busy += s.busy
		r.kinds[k].lat = append(r.kinds[k].lat, s.lat...)
	}
}

// catalogLoop runs both clients over the operations of w: a count applies
// to each client, a floor to the queries of both.
func catalogLoop(svc *service.Service, d *catalogData, vs *versions, seed int64, w window, tr *Tracer) *catalogRun {
	total := &catalogRun{kinds: map[string]*kindStat{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var queries atomic.Int64
	start := time.Now()
	for c := 0; c < catalogClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(svc)
			r := &catalogRun{kinds: map[string]*kindStat{}}
			for i := w.first; ; i++ {
				done := i - w.first // a count applies per client, a floor to both
				if w.count < 0 {
					done = int(queries.Load())
				}
				if !w.more(start, done) {
					break
				}
				op := catalogOpAt(seed, c, i)
				sp := tr.Start("catalog.op", -1, int64(c)<<32|int64(i))
				hs := tr.Start("service.http", sp, int64(c)<<32|int64(i))
				t0 := time.Now()
				if op.kind == "update" {
					v := int(vs.started.Add(1))
					x := d.orders[v%catalogVariants].XML
					err := cl.putDocument("orders", x)
					lat := time.Since(t0)
					vs.committed.Store(int64(v))
					tr.End(hs)
					tr.End(sp)
					r.t.add(err == nil, fmt.Sprint(err))
					r.ulat = append(r.ulat, float64(lat.Nanoseconds())/1e6)
					r.reqBytes += int64(len(x))
					r.note(op.kind, lat)
					continue
				}
				qb, dependsOnOrders := op.request()
				lo := int(vs.committed.Load())
				got, err := cl.jsonQuery(qb)
				lat := time.Since(t0)
				hi := int(vs.started.Load())
				tr.End(hs)
				tr.End(sp)
				switch {
				case err != nil:
					r.t.add(false, fmt.Sprintf("%s: %v", op.kind, err))
				case d.matches(op, got, lo, hi, dependsOnOrders):
					r.t.add(true, "")
				default:
					r.t.add(false, fmt.Sprintf("%s: output differs from reference (%d bytes)", op.kind, len(got)))
				}
				r.qlat = append(r.qlat, float64(lat.Nanoseconds())/1e6)
				queries.Add(1)
				r.reqBytes += int64(len(qb.Query))
				r.note(op.kind, lat)
			}
			mu.Lock()
			total.merge(r)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	return total
}

func (r *catalogRun) note(kind string, lat time.Duration) {
	s := r.kinds[kind]
	if s == nil {
		s = &kindStat{}
		r.kinds[kind] = s
	}
	s.n++
	s.busy += lat
	s.lat = append(s.lat, float64(lat.Nanoseconds())/1e6)
}

// setupCatalog starts a service and registers the four documents.
func setupCatalog(d *catalogData) (*service.Service, error) {
	svc := newService()
	c := newClient(svc)
	for _, doc := range []struct {
		name string
		xml  []byte
	}{{"orders", d.orders[0].XML}, {"deep", d.deep.XML}, {"bib", d.bib.XML}, {"tp", d.tp.XML}} {
		if err := c.putDocument(doc.name, doc.xml); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func runCatalog(cfg config) (report, error) {
	d := genCatalog(cfg.seed, catalogLines, deepNodes, bibBooks, tpPartners)
	var svc *service.Service
	setupS, err := timeSetup(9, 1, func() error {
		var err error
		svc, err = setupCatalog(d)
		return err
	})
	if err != nil {
		return report{}, err
	}
	// Warm-up: every query kind once, so plans, indexes and document
	// statistics exist before measurement (adhoc texts never repeat).
	vs := &versions{}
	cl := newClient(svc)
	for _, k := range catalogMix {
		for f := 0; f < 3; f++ {
			op := catalogOp{kind: k.kind, seller: 1, min: 60, typ: "LOCAL", family: f, id: -1 - f, qty: 10}
			qb, _ := op.request()
			got, err := cl.jsonQuery(qb)
			if err != nil {
				return report{}, fmt.Errorf("warm-up %s: %w", k.kind, err)
			}
			if got != d.ref(op, 0) {
				return report{}, fmt.Errorf("warm-up %s: output differs from reference", k.kind)
			}
		}
	}

	if !cfg.trace {
		r := catalogLoop(svc, d, vs, cfg.seed, timed(cfg.seconds, minLatencySamples), nil)
		logCatalog(r)
		wall := r.wall.Seconds()
		m := map[string]metric{
			"setup_s":    {setupS, "s"},
			"input_mb_s": {float64(r.reqBytes) / 1e6 / wall, "MB/s"},
			"ops_per_s":  {float64(len(r.qlat)) / wall, "1/s"},
		}
		if err := latencyMetrics(m, r.qlat); err != nil {
			return report{}, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		m["peak_rss_mb"] = metric{rss, "MB"}
		return finish(r.t, m), nil
	}

	// Blocks of operations untraced and then traced, for the tracing
	// overhead; then a replay of sampled operations through each layer.
	const block = 40
	tr := newTracer()
	var t tally
	plain, traced, err := interleave(cfg.seconds, tr, func(b int, tr *Tracer) (time.Duration, error) {
		r := catalogLoop(svc, d, vs, cfg.seed, window{first: b * block, count: block}, tr)
		t.merge(r.t)
		return r.wall, nil
	})
	if err != nil {
		return report{}, err
	}

	set := &replaySet{workload: "catalog", seed: cfg.seed, seedIndex: true}
	ord := set.addDoc("orders", d.orders[0].XML)
	deep := set.addDoc("deep", d.deep.XML)
	bib := set.addDoc("bib", d.bib.XML)
	tp := set.addDoc("tp", d.tp.XML)
	docOf := map[string]int{"orders": ord, "deep": deep, "bib": bib, "tp": tp}
	// Two operations of each template and four adhoc ones, from the
	// client sequences.
	seen := map[string]int{}
	for i := 0; len(set.queries) < 16 && i < 10000; i++ {
		op := catalogOpAt(cfg.seed, 1, i)
		want := 2
		if op.kind == "adhoc" {
			want = 4
		}
		if seen[op.kind] >= want {
			continue
		}
		seen[op.kind]++
		qb, _ := op.request()
		set.queries = append(set.queries, replayQuery{template: op.kind, text: qb.Query, vars: qb.Vars, doc: docOf[qb.Doc], ref: d.ref(op, 0)})
		if seen[op.kind] == 1 && op.kind != "adhoc" {
			set.service = append(set.service, serviceOp{name: op.kind, text: qb.Query, doc: docOf[qb.Doc], vars: qb.Vars})
		}
	}
	for _, s := range []int{1, 2} {
		set.stream = append(set.stream, replayStream{name: "q1", text: q1Text(s), input: ord, ref: d.q1Ref[0][s]})
	}
	for s := 1; s <= 5; s++ {
		set.sharedNames = append(set.sharedNames, fmt.Sprintf("q1-seller%d", s))
		set.sharedTexts = append(set.sharedTexts, q1Text(s))
	}
	set.sharedInput = ord
	set.projected = []replayStream{
		{name: "chain", text: tmplChain, input: deep, ref: d.chainRef},
		{name: "branch", text: tmplBranch, input: deep, ref: d.branchRef},
		{name: "adhoc-count", text: adhocCountText(7, 3), input: ord, ref: refAdhocCount(d.orders[0].Lines, 7, 3)},
		{name: "adhoc-books", text: adhocBooksText(8, 80), input: bib, ref: refAdhocBooks(d.bib.Books, 8, 80)},
	}
	set.twigDoc, set.chain, set.branch, set.chainRef = deep, "a//b//c", "a[b]//d", d.chainEmb
	m, err := replay(set, tr, svc, plain, traced, &t)
	if err != nil {
		return report{}, err
	}
	return finish(t, m), nil
}

// logCatalog prints the per-kind share of busy time and the update
// latency to standard error.
func logCatalog(r *catalogRun) {
	var busy time.Duration
	kinds := make([]string, 0, len(r.kinds))
	for k, s := range r.kinds {
		busy += s.busy
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := r.kinds[k]
		sort.Float64s(s.lat)
		q := func(p float64) float64 { return s.lat[int(p*float64(len(s.lat)-1))] }
		fmt.Fprintf(os.Stderr, "perfbench: catalog %-7s n=%-6d mean=%.3fms p10/p50/p90=%.1f/%.1f/%.1fms share=%.1f%%\n", k, s.n,
			s.busy.Seconds()*1e3/float64(s.n), q(0.1), q(0.5), q(0.9), 100*s.busy.Seconds()/busy.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: catalog update_p50_ms %.3f (%d updates)\n", median(r.ulat), len(r.ulat))
}
