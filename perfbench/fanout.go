package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"xqgo"
)

// The fanout workload: continuous queries over one live feed. One
// xqgo.Subscriber runs eight subscriptions over an Orders feed that a
// generator goroutine writes through an io.Pipe in 64 KiB writes: five
// bounded-buffer filters, one fully-streamable path and two store-required
// aggregates. One parse pass is shared by all of them, so per-token dispatch
// dominates, not per-request cost. Passes over the feed repeat until the run
// time is used.

const (
	fanoutFeedBytes   = 16 << 20
	fanoutSampleBytes = 2 << 20 // the replay's feed
	// fanoutChunk is the size of one feed write. With 4 KiB writes the
	// result lag was under a millisecond, and its p99 followed the host's
	// CPU steal (2.2 to 3.7 ms from run to run of the same code); at 64 KiB
	// it is set by the processing of the write itself.
	fanoutChunk   = 64 << 10
	fanoutSellers = 20
)

// fanoutSub is one subscription and its expected results in order.
type fanoutSub struct {
	name string
	text string
	exp  []refItem
}

// fanoutMinQty are the filters' quantity floors. Every seed uses all of
// them, so the filters' selectivities, and with them the work of a pass,
// are the same for every seed.
var fanoutMinQty = []int{8, 10, 11, 13, 15}

// fanoutSubs derives the eight subscriptions and their references for feed.
func fanoutSubs(seed int64, feed Orders) []fanoutSub {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	var subs []fanoutSub
	minQty := rng.Perm(len(fanoutMinQty))
	for k, s := range rng.Perm(fanoutSellers)[:len(fanoutMinQty)] {
		seller, minQty := s+1, fanoutMinQty[minQty[k]]
		subs = append(subs, fanoutSub{
			name: fmt.Sprintf("filter%d", k+1),
			text: filterText(seller, minQty),
			exp:  refFilter(feed, seller, minQty),
		})
	}
	return append(subs,
		fanoutSub{name: "note", text: noteText, exp: refNotes(feed)},
		fanoutSub{name: "count", text: countText, exp: []refItem{{end: -1, xml: refCount(feed.Lines)}}},
		fanoutSub{name: "sum", text: sumText, exp: []refItem{{end: -1, xml: refQtySum(feed.Lines)}}},
	)
}

// compileSubs is the fanout set-up: compile every subscription and its
// streaming form.
func compileSubs(subs []fanoutSub) ([]*xqgo.Query, error) {
	qs := make([]*xqgo.Query, len(subs))
	for i, s := range subs {
		q, err := xqgo.Compile(s.text, nil)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		q.Streamability()
		qs[i] = q
	}
	return qs, nil
}

type fanoutRun struct {
	passes    int
	delivered int64
	busy      time.Duration // sum of pass durations
	t         tally
	// Per pass: duration, results delivered and their lags.
	passTime []time.Duration
	passOps  []int64
	passLag  [][]float64 // result lags of each pass, ms
}

// fanoutPass feeds the whole feed once through a fresh Subscriber and
// checks every delivered result against its reference.
func fanoutPass(qs []*xqgo.Query, subs []fanoutSub, feed []byte, r *fanoutRun, tr *Tracer, pass int) error {
	nChunks := (len(feed) + fanoutChunk - 1) / fanoutChunk
	arrived := make([]atomic.Int64, nChunks+1) // per chunk, when the Subscriber received it; the last slot is EOF
	pos := make([]int, len(subs))
	delivered0 := r.delivered
	var lags []float64 // ms
	sp := tr.Start("fanout.pass", -1, int64(pass))
	t0 := time.Now()
	s := xqgo.NewSubscriber()
	handles := make([]*xqgo.Subscription, len(subs))
	for k := range subs {
		exp := subs[k].exp
		name := subs[k].name
		handles[k] = s.Subscribe(qs[k], func(x []byte) error {
			now := time.Since(t0).Nanoseconds()
			i := pos[k]
			pos[k]++
			if i >= len(exp) {
				r.t.add(false, name+": result beyond the reference")
				return nil
			}
			if string(x) == exp[i].xml {
				r.t.add(true, "")
			} else {
				r.t.add(false, fmt.Sprintf("%s: result %d differs from reference", name, i))
			}
			r.delivered++
			at := nChunks
			if exp[i].end >= 0 {
				at = (exp[i].end - 1) / fanoutChunk
			}
			lags = append(lags, float64(now-arrived[at].Load())/1e6)
			return nil
		})
	}
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := 0; c < nChunks; c++ {
			if _, err := pw.Write(feed[c*fanoutChunk : min(len(feed), (c+1)*fanoutChunk)]); err != nil {
				return
			}
		}
		pw.Close()
	}()
	rs := tr.Start("subscriber.run", sp, int64(pass))
	err := s.Run(context.Background(), &stampReader{r: pr, t0: t0, arrived: arrived}, "feed")
	tr.End(rs)
	pr.CloseWithError(io.ErrClosedPipe) // unblocks the writer if Run stopped early
	<-done
	took := time.Since(t0)
	r.busy += took
	r.passTime = append(r.passTime, took)
	r.passOps = append(r.passOps, r.delivered-delivered0)
	r.passLag = append(r.passLag, lags)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("feed: %w", err)
	}
	for k, h := range handles {
		if err := h.Err(); err != nil {
			r.t.add(false, fmt.Sprintf("%s: %v", subs[k].name, err))
		}
		for missing := len(subs[k].exp) - pos[k]; missing > 0; missing-- {
			r.t.add(false, subs[k].name+": result missing")
		}
	}
	r.passes++
	return nil
}

// stampReader is the Subscriber's end of the feed pipe. A write blocks
// until the Subscriber reads it, so a write's time is when a read first
// returns a byte of it; stampReader records that time per write, and the
// time of end of feed in the last slot.
type stampReader struct {
	r       io.Reader
	t0      time.Time
	off     int
	arrived []atomic.Int64
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	now := time.Since(s.t0).Nanoseconds()
	// Stamp the chunks whose first byte is in [off, off+n).
	for c := (s.off + fanoutChunk - 1) / fanoutChunk; c*fanoutChunk < s.off+n; c++ {
		s.arrived[c].Store(now)
	}
	s.off += n
	if err == io.EOF {
		s.arrived[len(s.arrived)-1].CompareAndSwap(0, now)
	}
	return n, err
}

// fanoutLoop runs the passes of w.
func fanoutLoop(qs []*xqgo.Query, subs []fanoutSub, feed []byte, w window, tr *Tracer) (*fanoutRun, error) {
	r := &fanoutRun{}
	start := time.Now()
	for p := w.first; w.more(start, r.passes); p++ {
		if err := fanoutPass(qs, subs, feed, r, tr, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func runFanout(cfg config) (report, error) {
	feed := genOrders(rand.New(rand.NewSource(cfg.seed)), cfg.seed, fanoutFeedBytes/orderLineBytes, fanoutSellers)
	subs := fanoutSubs(cfg.seed, feed)
	var qs []*xqgo.Query
	setupS, err := timeSetup(41, 20, func() error {
		var err error
		qs, err = compileSubs(subs)
		return err
	})
	if err != nil {
		return report{}, err
	}
	if !cfg.trace {
		r, err := fanoutLoop(qs, subs, feed.XML, timed(cfg.seconds, 0), nil)
		if err != nil {
			return report{}, err
		}
		// Every pass does the same work: the median pass discounts host
		// interference that hits a few of them. Each pass has over 10^5
		// results, so its own p99 is well founded.
		var mbs, ops, p50s, p99s []float64
		for p, d := range r.passTime {
			lm := map[string]metric{}
			if err := latencyMetrics(lm, r.passLag[p]); err != nil {
				return report{}, err
			}
			mbs = append(mbs, float64(len(feed.XML))/1e6/d.Seconds())
			ops = append(ops, float64(r.passOps[p])/d.Seconds())
			p50s = append(p50s, lm["latency_p50_ms"].Value)
			p99s = append(p99s, lm["latency_p99_ms"].Value)
			fmt.Fprintf(os.Stderr, "perfbench: fanout pass %d: %.3f MB/s, %d results, lag p50 %.3f ms p99 %.3f ms\n", p, mbs[p], r.passOps[p], p50s[p], p99s[p])
		}
		m := map[string]metric{
			"setup_s":        {setupS, "s"},
			"input_mb_s":     {median(mbs), "MB/s"},
			"ops_per_s":      {median(ops), "1/s"},
			"latency_p50_ms": {median(p50s), "ms"},
			"latency_p99_ms": {median(p99s), "ms"},
		}
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		m["peak_rss_mb"] = metric{rss, "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: fanout %d passes over %.1f MB, %d results\n", r.passes, float64(len(feed.XML))/1e6, r.delivered)
		return finish(r.t, m), nil
	}

	// Passes untraced and then traced, for the tracing overhead; then a
	// replay of the subscriptions over a smaller feed through each layer.
	tr := newTracer()
	var t tally
	plain, traced, err := interleave(cfg.seconds, tr, func(b int, tr *Tracer) (time.Duration, error) {
		r, err := fanoutLoop(qs, subs, feed.XML, window{first: b, count: 1}, tr)
		if err != nil {
			return 0, err
		}
		t.merge(r.t)
		return r.busy, nil
	})
	if err != nil {
		return report{}, err
	}

	sample := genOrders(rand.New(rand.NewSource(cfg.seed+1)), cfg.seed+1, fanoutSampleBytes/orderLineBytes, fanoutSellers)
	ssubs := fanoutSubs(cfg.seed, sample)
	set := &replaySet{workload: "fanout", seed: cfg.seed}
	in := set.addDoc("feed-sample", sample.XML)
	for k, s := range ssubs {
		set.queries = append(set.queries, replayQuery{template: s.name, text: s.text, doc: in, ref: joinItems(s.exp)})
		set.sharedNames = append(set.sharedNames, s.name)
		set.sharedTexts = append(set.sharedTexts, s.text)
		switch {
		case k == 0 || s.name == "note":
			set.stream = append(set.stream, replayStream{name: s.name, text: s.text, input: in, ref: joinItems(s.exp)})
			set.service = append(set.service, streamServiceOp(s.name, s.text, in))
		case s.name == "count" || s.name == "sum":
			set.projected = append(set.projected, replayStream{name: s.name, text: s.text, input: in, ref: joinItems(s.exp)})
		}
	}
	set.sharedInput = in
	set.twigDoc, set.chain, set.branch, set.chainRef = in, "OrderLine//Item//ID", "OrderLine[SellersID]//Quantity", -1
	// The service replay (streamed POST /query of the same subscriptions)
	// needs a service; fanout itself drives the Subscriber directly.
	m, err := replay(set, tr, newService(), plain, traced, &t)
	if err != nil {
		return report{}, err
	}
	return finish(t, m), nil
}
