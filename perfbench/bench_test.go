package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"orders": func(s int64) []byte { return genOrders(rand.New(rand.NewSource(s)), s, 200, 10).XML },
		"bib":    func(s int64) []byte { return genBib(rand.New(rand.NewSource(s)), 100).XML },
		"deep":   func(s int64) []byte { return genDeep(rand.New(rand.NewSource(s)), 1000).XML },
		"tp":     func(s int64) []byte { return genTP(rand.New(rand.NewSource(s)), 20).XML },
		"message": func(s int64) []byte {
			return genMessage(s, ingestOps(s)[0], 3).body
		},
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: same seed, different bytes", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: different seeds, same bytes", name)
		}
	}
	if !reflect.DeepEqual(ingestOps(5), ingestOps(5)) {
		t.Error("ingest: same seed, different operation sequence")
	}
	for c := 0; c < catalogClients; c++ {
		for i := 0; i < 500; i++ {
			if catalogOpAt(5, c, i) != catalogOpAt(5, c, i) {
				t.Fatalf("catalog client %d op %d: same seed, different operation", c, i)
			}
		}
	}
	feed := genOrders(rand.New(rand.NewSource(5)), 5, 300, fanoutSellers)
	a, b := fanoutSubs(5, feed), fanoutSubs(5, feed)
	if !reflect.DeepEqual(a, b) {
		t.Error("fanout: same seed, different subscriptions")
	}
}

func TestIngestCycleIsStratified(t *testing.T) {
	// Every seed draws the same size distribution: totals agree within
	// the width of one stratum.
	total := func(seed int64) (orders, bytes int) {
		for _, op := range ingestOps(seed) {
			bytes += op.size
			if op.orders {
				orders++
			}
		}
		return
	}
	o1, b1 := total(1)
	o2, b2 := total(2)
	if o1 != ingestOrders || o2 != ingestOrders {
		t.Fatalf("orders per cycle = %d, %d; want %d", o1, o2, ingestOrders)
	}
	if d := float64(b1-b2) / float64(b1); d > 0.05 || d < -0.05 {
		t.Errorf("cycle bytes differ by %.1f%% between seeds", d*100)
	}
}

// tinyOrders is a hand-written three-line Order whose answers are checked
// by hand below.
var tinyOrders = []OrderLine{
	{N: 1, Seller: 3, ID: "SKU-1-7", Qty: 4, Dock: 2},
	{N: 2, Seller: 1, ID: "SKU-2-9", Qty: 15, Dock: 0},
	{N: 3, Seller: 3, ID: "SKU-3-1", Qty: 12, Dock: 5},
}

func TestOracleHandChecked(t *testing.T) {
	cases := []struct{ name, got, want string }{
		{"q1", refLineItems(tinyOrders, 3), "<lineItem>SKU-1-7</lineItem><lineItem>SKU-3-1</lineItem>"},
		{"q1 none", refLineItems(tinyOrders, 2), ""},
		{"agg", refSellerSum(tinyOrders, 3), `<sum seller="3">16</sum>`},
		{"count", refCount(tinyOrders), "3"},
		{"sum", refQtySum(tinyOrders), "31"},
		{"hits", refAdhocHits(tinyOrders, 9, 3, 10), `<hit id="9" n="3"/>`},
		{"adhoc count", refAdhocCount(tinyOrders, 9, 1), `<adhoc id="9">1</adhoc>`},
	}
	books := []Book{
		{Year: 1999, Title: "Web Data", Cents: 6500},
		{Year: 1994, Title: "Data Web", Cents: 6000},
		{Year: 1992, Title: "Data Web", Cents: 9000},
		{Year: 1991, Title: "XML", Cents: 6100},
	}
	cases = append(cases,
		struct{ name, got, want string }{"ingest bib", refIngestBib(books), "<r>Data Web</r><r>Web Data</r><r>XML</r>"},
		struct{ name, got, want string }{"bib", refBibTemplate(books, 60),
			`<book year="1992">Data Web</book><book year="1999">Web Data</book><book year="1991">XML</book>`},
		struct{ name, got, want string }{"books", refAdhocBooks(books, 64, 61), `<adhoc id="64"><y>1999</y><y>1992</y></adhoc>`},
	)
	p := Partner{Name: "p", Type: "LOCAL", Email: "p@x", BusinessID: "D-1", Address: "1 Way", ServerCert: true,
		Channels: []Channel{
			{Name: "c0", Protocol: "RosettaNet"},
			{Name: "c1", Protocol: "ebXML", Version: "2.0", NonrepOrigin: "true", Semantics: "BestEffort", TTL: 5000, TransportProto: "https", Endpoint: "https://p/1"},
		}}
	cases = append(cases, struct{ name, got, want string }{"tp", refTP([]Partner{p, {Type: "REMOTE"}}, "LOCAL"),
		`<trading-partner name="p" business-id="D-1" type="LOCAL" email="p@x"><address>1 Way</address>` +
			`<server-certificate name="p-server-cert"/><ebxml-binding name="c1" business-protocol-version="2.0" ` +
			`is-signature-required="true" delivery-semantics="BestEffort" persist-duration="5 seconds">` +
			`<transport protocol="https" protocol-version="1.1" endpoint="https://p/1"/></ebxml-binding></trading-partner>`})
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}

	// <root><a><b><c/><d/></b><c/></a><a><d/></a></root>
	tree := []DeepNode{{'a', -1}, {'b', 0}, {'c', 1}, {'d', 1}, {'c', 0}, {'a', -1}, {'d', 5}}
	chain, branch, emb := deepCounts(tree)
	if chain != 1 || branch != 1 || emb != 1 {
		t.Errorf("deepCounts = %d, %d, %d; want 1, 1, 1", chain, branch, emb)
	}
}

// TestOracleMatchesService runs every query text of the three workloads
// through the service on small generated documents and compares the replies
// with the oracle.
func TestOracleMatchesService(t *testing.T) {
	d := genCatalog(3, 300, 3000, 120, 30)
	svc, err := setupCatalog(d)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(svc)
	for _, op := range []catalogOp{
		{kind: "q1", seller: 4}, {kind: "agg", seller: 4}, {kind: "chain"}, {kind: "branch"},
		{kind: "bib", min: 70}, {kind: "tp", typ: "REMOTE"},
		{kind: "adhoc", family: 0, id: 1, seller: 2, qty: 9}, {kind: "adhoc", family: 1, id: 2, seller: 5},
		{kind: "adhoc", family: 2, id: 3, min: 75},
	} {
		qb, _ := op.request()
		got, err := c.jsonQuery(qb)
		if err != nil {
			t.Errorf("%s/%d: %v", op.kind, op.family, err)
			continue
		}
		if want := d.ref(op, 0); got != want {
			t.Errorf("%s/%d:\n got %.300s\nwant %.300s", op.kind, op.family, got, want)
		}
	}

	for _, op := range []ingestOp{{orders: true, size: 9000, seller: 2}, {size: 9000}} {
		if ok, why := c.post(genMessage(3, op, 0)); !ok {
			t.Errorf("ingest orders=%v: %s", op.orders, why)
		}
	}

	for _, s := range fanoutSubs(3, d.orders[0]) {
		got, err := c.jsonQuery(queryBody{Query: s.text, Doc: "orders"})
		if err != nil {
			t.Errorf("fanout %s: %v", s.name, err)
			continue
		}
		if want := joinItems(s.exp); got != want {
			t.Errorf("fanout %s:\n got %.300s\nwant %.300s", s.name, got, want)
		}
	}
}

// TestCatalogClients runs both catalog clients, document replaces included,
// against one service; with -race it checks their shared state.
func TestCatalogClients(t *testing.T) {
	d := genCatalog(4, 200, 2000, 100, 20)
	svc, err := setupCatalog(d)
	if err != nil {
		t.Fatal(err)
	}
	r := catalogLoop(svc, d, &versions{}, 4, window{count: 2 * 104}, newTracer())
	if r.t.failed != 0 || len(r.ulat) != 2*catalogUpdates {
		t.Fatalf("%d of %d operations failed (first: %s), %d updates", r.t.failed, r.t.attempted, r.t.firstErr, len(r.ulat))
	}
}

func TestWrongReferenceIsCaught(t *testing.T) {
	c := newClient(newService())
	m := genMessage(1, ingestOp{orders: true, size: 6000, seller: 1}, 0)
	if ok, _ := c.post(m); !ok {
		t.Fatal("correct reference rejected")
	}
	m.ref = strings.Replace(m.ref, "SKU", "SKV", 1)
	var tl tally
	ok, why := c.post(m)
	tl.add(ok, why)
	if ok || tl.failed != 1 || tl.attempted != 1 {
		t.Fatalf("wrong reference not counted as a failure: ok=%v tally=%+v", ok, tl)
	}
}

func TestFanoutPassChecksEveryResult(t *testing.T) {
	feed := genOrders(rand.New(rand.NewSource(2)), 2, 2000, fanoutSellers)
	subs := fanoutSubs(2, feed)
	qs, err := compileSubs(subs)
	if err != nil {
		t.Fatal(err)
	}
	r := &fanoutRun{}
	if err := fanoutPass(qs, subs, feed.XML, r, nil, 0); err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, s := range subs {
		want += int64(len(s.exp))
	}
	if r.t.failed != 0 || r.t.attempted != want || r.delivered != want {
		t.Fatalf("pass: %+v delivered %d, want %d results", r.t, r.delivered, want)
	}
	// A corrupted reference shows up as failures.
	subs[5].exp[10].xml = "<Note>wrong</Note>"
	subs[6].exp = append(subs[6].exp, refItem{end: -1, xml: "extra"})
	r = &fanoutRun{}
	if err := fanoutPass(qs, subs, feed.XML, r, nil, 0); err != nil {
		t.Fatal(err)
	}
	if r.t.failed != 2 {
		t.Fatalf("corrupted references: %d failures, want 2 (%s)", r.t.failed, r.t.firstErr)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) accepted")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond it) accepted")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: the union counts once
		{Name: "a", Start: 45, End: 50, Parent: 2},
	}
	got := selfTimes(spans)
	want := map[string]LayerTime{"op": {SelfNs: 50, Calls: 1}, "a": {SelfNs: 35, Calls: 2}, "b": {SelfNs: 25, Calls: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestReplayReportsEveryLayerMetric replays a small ingest-shaped set
// through every layer and checks that each per-layer metric BENCHMARK.json
// lists comes out, with its unit, and that every replayed output matches
// its reference.
func TestReplayReportsEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the trace file goes to .bench_out/
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	set := &replaySet{workload: "test", seed: 1}
	om := genMessage(1, ingestOp{orders: true, size: 8000, seller: 2}, 0)
	bm := genMessage(1, ingestOp{size: 8000}, 1)
	o := set.addDoc("orders", om.body)
	b := set.addDoc("bib", bm.body)
	set.queries = []replayQuery{{template: "q1", text: om.query, doc: o, ref: om.ref}, {template: "bib", text: bm.query, doc: b, ref: bm.ref}}
	set.stream = []replayStream{{name: "q1", text: om.query, input: o, ref: om.ref}}
	set.projected = []replayStream{{name: "bib", text: bm.query, input: b, ref: bm.ref}}
	set.service = []serviceOp{streamServiceOp("q1", om.query, o), {name: "bib", text: bm.query, doc: b}}
	set.sharedNames, set.sharedTexts, set.sharedInput = []string{"s1", "s2"}, []string{q1Text(1), q1Text(2)}, o
	set.twigDoc, set.chain, set.branch, set.chainRef = o, "OrderLine//Item//ID", "OrderLine[SellersID]//Quantity", -1

	var tl tally
	m, err := replay(set, newTracer(), newService(), time.Second, time.Second, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("replay checks: %+v", tl)
	}
	for _, pl := range bench.PerLayer {
		if got, ok := m[pl.Name]; !ok || got.Unit != pl.Unit {
			t.Errorf("%s: got %+v, want unit %s", pl.Name, got, pl.Unit)
		}
	}
	if len(m) != len(bench.PerLayer) {
		t.Errorf("replay reports %d metrics, BENCHMARK.json lists %d", len(m), len(bench.PerLayer))
	}
}
