package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"time"

	"xqgo"
	"xqgo/internal/serializer"
	"xqgo/internal/service"
	"xqgo/internal/structjoin"
	"xqgo/internal/xmlparse"
)

// The traced mode's layer replay: each sampled operation's inputs go
// through each layer's own entry point, timed by spans from this file, so
// the per-layer numbers come from the same inputs the end-to-end run used.

type replayDoc struct {
	name string
	xml  []byte
	doc  *xqgo.Document    // parsed once by the xmlparse step
	idx  *structjoin.Index // built on demand for seeding
	med  time.Duration     // median parse time
}

// replayQuery is one stored-document evaluation (runtime, serializer).
type replayQuery struct {
	template string
	text     string
	vars     map[string]any
	doc      int
	ref      string
}

// replayStream is one query over an XML input given as bytes (streamexec
// and projection steps).
type replayStream struct {
	name  string
	text  string
	input int
	ref   string
}

// serviceOp is one request replayed through ServeHTTP and, for comparison,
// through a direct Query.Execute on the same input.
type serviceOp struct {
	name   string
	text   string
	doc    int
	stream bool // streamed XML body; otherwise a JSON query on a catalog document
	vars   map[string]any
}

func streamServiceOp(name, text string, doc int) serviceOp {
	return serviceOp{name: name, text: text, doc: doc, stream: true}
}

type replaySet struct {
	workload  string
	seed      int64
	docs      []replayDoc
	queries   []replayQuery
	stream    []replayStream
	projected []replayStream
	service   []serviceOp
	seedIndex bool // stored evaluations share a prebuilt structural index, as the service does

	sharedNames []string
	sharedTexts []string
	sharedInput int

	twigDoc       int
	chain, branch string
	chainRef      int64 // expected a//b//c embeddings; -1 = unchecked
}

func (s *replaySet) addDoc(name string, xml []byte) int {
	s.docs = append(s.docs, replayDoc{name: name, xml: xml})
	return len(s.docs) - 1
}

// repeat runs fn at least 3 and at most 25 times, until 60ms have passed,
// and returns the median duration.
func repeat(fn func() error) (time.Duration, error) {
	var ds []float64
	var total time.Duration
	for i := 0; i < 25 && (i < 3 || total < 60*time.Millisecond); i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

func heapAlloc() uint64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replay measures every layer over set and returns the per-layer metrics.
// plainWall and tracedWall are the wall times of the same operations run
// without and with spans.
func replay(set *replaySet, tr *Tracer, svc *service.Service, plainWall, tracedWall time.Duration, t *tally) (map[string]metric, error) {
	m := map[string]metric{}
	bd := map[string]any{}
	check := func(name, got, want string) {
		if got == want {
			t.add(true, "")
			return
		}
		t.add(false, fmt.Sprintf("replay %s: output differs from reference (%d vs %d bytes)", name, len(got), len(want)))
	}

	// xmlparse + store: tokenizer and store build over every input.
	var pBytes, pNodes, pAllocs, pRetained int64
	var pTime time.Duration
	for i := range set.docs {
		d := &set.docs[i]
		base := heapAlloc()
		a0 := mallocs()
		sp := tr.Start("xmlparse", -1, int64(i))
		sd, err := xmlparse.Parse(bytes.NewReader(d.xml), xmlparse.Options{URI: d.name})
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("replay parse %s: %w", d.name, err)
		}
		pAllocs += int64(mallocs() - a0)
		pRetained += int64(heapAlloc()) - int64(base)
		goruntime.KeepAlive(sd)
		d.doc = xqgo.FromStore(sd)
		pNodes += int64(sd.NumNodes())
		d.med, err = repeat(func() error {
			sp := tr.Start("xmlparse", -1, int64(i))
			defer tr.End(sp)
			_, err := xmlparse.Parse(bytes.NewReader(d.xml), xmlparse.Options{URI: d.name})
			return err
		})
		if err != nil {
			return nil, err
		}
		pBytes += int64(len(d.xml))
		pTime += d.med
	}
	m["xmlparse.mb_s"] = metric{float64(pBytes) / 1e6 / pTime.Seconds(), "MB/s"}
	m["xmlparse.allocs_per_node"] = metric{float64(pAllocs) / float64(pNodes), "count"}
	m["xmlparse.nodes"] = metric{float64(pNodes), "count"}
	m["store.retained_bytes_per_node"] = metric{float64(max(pRetained, 0)) / float64(pNodes), "B"}

	// xqparse + optimizer: compile every distinct query text.
	compiled := map[string]*xqgo.Query{}
	var texts []string
	addText := func(s string) {
		if _, ok := compiled[s]; !ok {
			compiled[s] = nil
			texts = append(texts, s)
		}
	}
	for _, q := range set.queries {
		addText(q.text)
	}
	for _, q := range append(append([]replayStream(nil), set.stream...), set.projected...) {
		addText(q.text)
	}
	for _, s := range set.sharedTexts {
		addText(s)
	}
	for _, op := range set.service {
		addText(op.text)
	}
	var compileUs []float64
	fires := 0
	for i, s := range texts {
		q, err := xqgo.Compile(s, nil)
		if err != nil {
			return nil, fmt.Errorf("replay compile: %w", err)
		}
		compiled[s] = q
		for _, n := range q.RuleFires() {
			fires += n
		}
		for r := 0; r < 5; r++ {
			sp := tr.Start("compile", -1, int64(i))
			t0 := time.Now()
			_, err := xqgo.Compile(s, nil)
			compileUs = append(compileUs, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.End(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	m["compile.us_p50"] = metric{median(compileUs), "us"}
	m["compile.queries"] = metric{float64(len(texts)), "count"}
	m["optimizer.rule_fires"] = metric{float64(fires), "count"}

	// runtime + serializer: stored evaluation of each sampled operation.
	var counters xqgo.EngineCounters
	var evalTotal time.Duration
	var evalAllocs, evalReps int64
	var serBytes int64
	var serTime time.Duration
	perTmpl := map[string][]float64{}
	perTmplAllocs := map[string][]float64{}
	for i, rq := range set.queries {
		q := compiled[rq.text]
		d := &set.docs[rq.doc]
		ctxFor := func(p *xqgo.Profile) (*xqgo.Context, error) {
			c := xqgo.NewContext().WithContextNode(d.doc)
			for k, v := range rq.vars {
				if err := c.BindValue(k, v); err != nil {
					return nil, err
				}
			}
			if set.seedIndex {
				if d.idx == nil {
					d.idx = structjoin.BuildIndex(d.doc.Store())
				}
				c.SeedIndex(d.doc, d.idx)
			}
			if p != nil {
				c.WithProfile(p)
			}
			return c, nil
		}
		prof := q.NewCountersProfile()
		c, err := ctxFor(prof)
		if err != nil {
			return nil, err
		}
		seq, err := q.Eval(c)
		if err != nil {
			return nil, fmt.Errorf("replay eval %s: %w", rq.template, err)
		}
		addCounters(&counters, prof.Report().Counters)
		var out bytes.Buffer
		if err := serializer.New(&out, serializer.Options{OmitXMLDecl: true}).Sequence(seq); err != nil {
			return nil, err
		}
		check(rq.template, out.String(), rq.ref)
		reps := int64(0)
		a0 := mallocs()
		med, err := repeat(func() error {
			c, err := ctxFor(nil)
			if err != nil {
				return err
			}
			sp := tr.Start("runtime", -1, int64(i))
			defer tr.End(sp)
			reps++
			_, err = q.Eval(c)
			return err
		})
		if err != nil {
			return nil, err
		}
		allocs := int64(mallocs()-a0) / reps
		evalTotal += med
		evalAllocs += allocs * reps
		evalReps += reps
		perTmpl[rq.template] = append(perTmpl[rq.template], float64(med.Nanoseconds())/1e6)
		perTmplAllocs[rq.template] = append(perTmplAllocs[rq.template], float64(allocs))
		smed, err := repeat(func() error {
			sp := tr.Start("serializer", -1, int64(i))
			defer tr.End(sp)
			return serializer.New(io.Discard, serializer.Options{OmitXMLDecl: true}).Sequence(seq)
		})
		if err != nil {
			return nil, err
		}
		serBytes += int64(out.Len())
		serTime += smed
	}
	if n := len(set.queries); n > 0 {
		m["runtime.eval_ms"] = metric{float64(evalTotal.Nanoseconds()) / 1e6 / float64(n), "ms"}
		m["runtime.allocs_per_op"] = metric{float64(evalAllocs) / float64(evalReps), "count"}
	}
	m["runtime.ops"] = metric{float64(len(set.queries)), "count"}
	m["optimizer.plan_navigation"] = metric{float64(counters.PlanNavigation), "count"}
	m["optimizer.plan_binary"] = metric{float64(counters.PlanBinaryJoin), "count"}
	m["optimizer.plan_twig"] = metric{float64(counters.PlanTwigJoin), "count"}
	m["serializer.mb_s"] = metric{float64(serBytes) / 1e6 / serTime.Seconds(), "MB/s"}
	m["serializer.bytes"] = metric{float64(serBytes), "B"}
	tmpl := map[string]float64{}
	for k, v := range perTmpl {
		tmpl["runtime."+k+".eval_ms"] = median(v)
		tmpl["runtime."+k+".allocs_per_op"] = median(perTmplAllocs[k])
	}
	printBreakdown(set.workload, tmpl)
	bd["templates"] = tmpl

	// structjoin: index build and holistic twig counts on one document.
	td := set.docs[set.twigDoc].doc
	var idx *xqgo.Index
	build, err := repeat(func() error {
		sp := tr.Start("structjoin", -1, int64(set.twigDoc))
		defer tr.End(sp)
		idx = td.BuildIndex()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["structjoin.index_build_ms"] = metric{float64(build.Nanoseconds()) / 1e6, "ms"}
	for _, tw := range []struct{ name, pattern string }{{"chain", set.chain}, {"branch", set.branch}} {
		var st xqgo.TwigStats
		d, err := repeat(func() error {
			sp := tr.Start("structjoin", -1, int64(set.twigDoc))
			defer tr.End(sp)
			var err error
			st, err = idx.CountTwig(tw.pattern)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay twig %s: %w", tw.pattern, err)
		}
		if tw.name == "chain" && set.chainRef >= 0 {
			t.add(st.PathSolutions == set.chainRef, fmt.Sprintf("replay twig %s: %d solutions, want %d", tw.pattern, st.PathSolutions, set.chainRef))
		}
		m["structjoin."+tw.name+".twig_ms"] = metric{float64(d.Nanoseconds()) / 1e6, "ms"}
	}

	// streamexec: stream-mode Execute without the service, next to the
	// tokenizer+store rate on the same bytes.
	var sBytes int64
	var sTime, sParse time.Duration
	var sc xqgo.EngineCounters
	for i, rs := range set.stream {
		q := compiled[rs.text]
		in := set.docs[rs.input].xml
		prof := q.NewCountersProfile()
		var out bytes.Buffer
		if err := q.Execute(xqgo.NewContext().WithStreamingInput(bytes.NewReader(in), "request:body").WithStreamMode(true).WithProfile(prof), &out); err != nil {
			return nil, fmt.Errorf("replay stream %s: %w", rs.name, err)
		}
		addCounters(&sc, prof.Report().Counters)
		check("stream "+rs.name, out.String(), rs.ref)
		d, err := repeat(func() error {
			sp := tr.Start("streamexec", -1, int64(i))
			defer tr.End(sp)
			return q.Execute(xqgo.NewContext().WithStreamingInput(bytes.NewReader(in), "request:body").WithStreamMode(true), io.Discard)
		})
		if err != nil {
			return nil, err
		}
		sBytes += int64(len(in))
		sTime += d
		sParse += set.docs[rs.input].med
	}
	if sBytes > 0 {
		m["streamexec.mb_s"] = metric{float64(sBytes) / 1e6 / sTime.Seconds(), "MB/s"}
		m["streamexec.parse_mb_s"] = metric{float64(sBytes) / 1e6 / sParse.Seconds(), "MB/s"}
	}

	// streamexec shared pass: N subscriptions over one parse versus each
	// alone.
	if len(set.sharedTexts) > 0 {
		in := set.docs[set.sharedInput].xml
		run := func(qs []*xqgo.Query, prof *xqgo.Profile) error {
			sub := xqgo.NewSubscriber()
			if prof != nil {
				sub.WithProfile(prof)
			}
			var subs []*xqgo.Subscription
			for _, q := range qs {
				subs = append(subs, sub.Subscribe(q, func([]byte) error { return nil }))
			}
			if err := sub.Run(context.Background(), bytes.NewReader(in), "feed"); err != nil {
				return err
			}
			for _, s := range subs {
				if err := s.Err(); err != nil {
					return err
				}
			}
			return nil
		}
		var all []*xqgo.Query
		for _, s := range set.sharedTexts {
			all = append(all, compiled[s])
		}
		prof := all[0].NewCountersProfile()
		if err := run(all, prof); err != nil {
			return nil, fmt.Errorf("replay shared feed: %w", err)
		}
		addCounters(&sc, prof.Report().Counters)
		shared, err := repeat(func() error {
			sp := tr.Start("streamexec", -1, int64(set.sharedInput))
			defer tr.End(sp)
			return run(all, nil)
		})
		if err != nil {
			return nil, err
		}
		var solo time.Duration
		solos := map[string]float64{}
		for i, q := range all {
			d, err := repeat(func() error {
				sp := tr.Start("streamexec", -1, int64(set.sharedInput))
				defer tr.End(sp)
				return run([]*xqgo.Query{q}, nil)
			})
			if err != nil {
				return nil, err
			}
			solo += d
			solos["streamexec.sub."+set.sharedNames[i]+".solo_s"] = d.Seconds()
		}
		printBreakdown(set.workload, solos)
		bd["subscriptions"] = solos
		m["streamexec.shared_gain"] = metric{solo.Seconds() / shared.Seconds(), "ratio"}
		m["streamexec.shared_s"] = metric{shared.Seconds(), "s"}
		m["streamexec.solo_s"] = metric{solo.Seconds(), "s"}
	}
	m["streamexec.windows"] = metric{float64(sc.StreamWindows), "count"}
	m["streamexec.peak_buffer_bytes"] = metric{float64(sc.StreamBufferPeakBytes), "B"}
	m["streamexec.fallbacks"] = metric{float64(sc.StreamFallbacks), "count"}

	// projection: store-required queries over a projected lazy parse.
	var skipped, built int64
	for i, rs := range set.projected {
		q := compiled[rs.text]
		prof := q.NewCountersProfile()
		var out bytes.Buffer
		sp := tr.Start("projection", -1, int64(i))
		err := q.Execute(xqgo.NewContext().WithStreamingInput(bytes.NewReader(set.docs[rs.input].xml), "request:body").WithProfile(prof), &out)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("replay projection %s: %w", rs.name, err)
		}
		check("projected "+rs.name, out.String(), rs.ref)
		c := prof.Report().Counters
		skipped += c.NodesSkipped
		built += c.DocNodesBuilt
	}
	m["projection.skip_ratio"] = metric{ratio(float64(skipped), float64(skipped+built)), "ratio"}
	m["projection.nodes_seen"] = metric{float64(skipped + built), "count"}

	// service: ServeHTTP versus a direct Execute on the same input.
	var overhead []float64
	c := newClient(svc)
	registered := map[int]bool{}
	for _, op := range set.service {
		if !op.stream && !registered[op.doc] {
			if _, err := svc.RegisterDocument(replayDocName(op.doc), bytes.NewReader(set.docs[op.doc].xml)); err != nil {
				return nil, err
			}
			registered[op.doc] = true
		}
	}
	for i, op := range set.service {
		q := compiled[op.text]
		d := &set.docs[op.doc]
		var viaHTTP, direct []float64
		for r := 0; r < 5; r++ {
			sp := tr.Start("service.http", -1, int64(i))
			t0 := time.Now()
			var status int
			if op.stream {
				status, _ = c.do("POST", streamQueryTarget(op.text), "application/xml", bytes.NewReader(d.xml))
			} else {
				_, err = c.jsonQuery(queryBody{Query: op.text, Doc: replayDocName(op.doc), Vars: op.vars})
				status = http.StatusOK
				if err != nil {
					status = 0
				}
			}
			viaHTTP = append(viaHTTP, float64(time.Since(t0).Nanoseconds()))
			tr.End(sp)
			t.add(status == http.StatusOK, fmt.Sprintf("replay service %s: status %d", op.name, status))

			sp = tr.Start("service.direct", -1, int64(i))
			t0 = time.Now()
			ctx := xqgo.NewContext()
			if op.stream {
				ctx.WithStreamingInput(bytes.NewReader(d.xml), "request:body").WithStreamMode(true)
			} else {
				ctx.WithContextNode(d.doc)
				for k, v := range op.vars {
					if err := ctx.BindValue(k, v); err != nil {
						return nil, err
					}
				}
				if d.idx == nil {
					d.idx = structjoin.BuildIndex(d.doc.Store())
				}
				ctx.SeedIndex(d.doc, d.idx)
			}
			err := q.Execute(ctx, io.Discard)
			direct = append(direct, float64(time.Since(t0).Nanoseconds()))
			tr.End(sp)
			if err != nil {
				return nil, fmt.Errorf("replay direct %s: %w", op.name, err)
			}
		}
		overhead = append(overhead, (median(viaHTTP)-median(direct))/1e3)
	}
	if len(overhead) > 0 {
		m["service.overhead_us_p50"] = metric{median(overhead), "us"}
	}
	st := svc.Stats().PlanCache
	m["service.plan_cache_hit_ratio"] = metric{st.HitRatio, "ratio"}
	m["service.plan_lookups"] = metric{float64(st.Hits + st.Misses), "count"}

	// Tracing: the same operations with and without spans, and the spans'
	// per-layer self time.
	m["trace.overhead_pct"] = metric{(tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds() * 100, "%"}
	spans := tr.Spans()
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	self := selfTimes(spans)
	for _, layer := range []struct{ metric, span string }{
		{"xmlparse", "xmlparse"}, {"compile", "compile"}, {"runtime", "runtime"},
		{"structjoin", "structjoin"}, {"serializer", "serializer"}, {"streamexec", "streamexec"},
		{"projection", "projection"}, {"service", "service.http"},
	} {
		lt := self[layer.span]
		m[layer.metric+".self_ms"] = metric{float64(lt.SelfNs) / 1e6, "ms"}
		m[layer.metric+".calls"] = metric{float64(lt.Calls), "count"}
	}
	bd["selfTimes"] = self
	if err := writeTrace(set.workload, set.seed, spans, bd); err != nil {
		return nil, err
	}
	return m, nil
}

// replayDocName is the catalog name under which the service replay
// registers replay document i.
func replayDocName(i int) string { return fmt.Sprintf("replay-%d", i) }

func addCounters(acc *xqgo.EngineCounters, c xqgo.EngineCounters) {
	acc.PlanNavigation += c.PlanNavigation
	acc.PlanBinaryJoin += c.PlanBinaryJoin
	acc.PlanTwigJoin += c.PlanTwigJoin
	acc.StreamWindows += c.StreamWindows
	acc.StreamFallbacks += c.StreamFallbacks
	acc.StreamBufferPeakBytes = max(acc.StreamBufferPeakBytes, c.StreamBufferPeakBytes)
}
