package service

import (
	"fmt"
	"io"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Prometheus text exposition (stdlib only) for GET /metrics. The histogram
// is computed from statsCore's fixed buckets — no sorting, no window scan —
// so scraping stays O(buckets) regardless of traffic.

// openMetricsContentType is the OpenMetrics media type GET /metrics answers
// with when the scraper asks for it (Accept negotiation).
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition (which adds trace-id exemplars to the latency
// histogram). Plain prefix scan over the comma list; q-values are ignored —
// a scraper listing the media type at all gets it.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// buildInfoLabels resolves the xqgo_build_info label set once: the main
// module's version ("(devel)" for source builds) and the Go toolchain.
var buildInfoLabels = sync.OnceValue(func() string {
	version, goVersion := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
	}
	return fmt.Sprintf("{goversion=%q,version=%q}", goVersion, version)
})

// WriteMetrics renders every service metric in Prometheus text format
// (version 0.0.4).
func (s *Service) WriteMetrics(w io.Writer) {
	s.writeMetrics(w, false)
}

// WriteOpenMetrics renders the same metrics in OpenMetrics text format:
// histogram buckets carry trace-id exemplars linking latency spikes to
// GET /traces/{id}, and the exposition ends with the mandatory # EOF.
func (s *Service) WriteOpenMetrics(w io.Writer) {
	s.writeMetrics(w, true)
	fmt.Fprintf(w, "# EOF\n")
}

func (s *Service) writeMetrics(w io.Writer, exemplars bool) {
	st := s.stats
	st.mu.Lock()
	served, errs, rej, to := st.served, st.errors, st.rejected, st.timeouts
	start := st.start
	engine := st.engine
	profiled := st.profiled
	st.mu.Unlock()
	buckets, sum, count := st.histogram()
	docs, bytes, nodes := s.Catalog.Totals()
	pc := s.plans.Stats()
	_, slowTotal := s.slow.snapshot()

	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("xqd_requests_total", "Completed requests by outcome.")
	fmt.Fprintf(w, "xqd_requests_total{outcome=\"ok\"} %d\n", served)
	fmt.Fprintf(w, "xqd_requests_total{outcome=\"error\"} %d\n", errs)
	fmt.Fprintf(w, "xqd_requests_total{outcome=\"rejected\"} %d\n", rej)
	fmt.Fprintf(w, "xqd_requests_total{outcome=\"timeout\"} %d\n", to)

	fmt.Fprintf(w, "# HELP xqd_request_duration_seconds Service-side request latency (queue wait included; rejections excluded).\n")
	fmt.Fprintf(w, "# TYPE xqd_request_duration_seconds histogram\n")
	var exes []exemplar
	if exemplars {
		exes = st.exemplars()
	}
	bucketExemplar := func(i int) string {
		if i >= len(exes) || exes[i].traceID == "" {
			return ""
		}
		e := exes[i]
		return fmt.Sprintf(" # {trace_id=%q} %s %s", e.traceID,
			strconv.FormatFloat(e.value, 'g', -1, 64),
			strconv.FormatFloat(float64(e.ts.UnixNano())/1e9, 'f', 3, 64))
	}
	cum := uint64(0)
	for i, ub := range latBuckets {
		cum += buckets[i]
		fmt.Fprintf(w, "xqd_request_duration_seconds_bucket{le=\"%s\"} %d%s\n",
			strconv.FormatFloat(ub, 'g', -1, 64), cum, bucketExemplar(i))
	}
	cum += buckets[len(latBuckets)]
	fmt.Fprintf(w, "xqd_request_duration_seconds_bucket{le=\"+Inf\"} %d%s\n",
		cum, bucketExemplar(len(latBuckets)))
	fmt.Fprintf(w, "xqd_request_duration_seconds_sum %s\n",
		strconv.FormatFloat(sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "xqd_request_duration_seconds_count %d\n", count)

	gauge("xqd_in_flight_requests", "Queries currently executing.")
	fmt.Fprintf(w, "xqd_in_flight_requests %d\n", s.exec.InFlight())
	gauge("xqd_queued_requests", "Requests waiting for a worker slot.")
	fmt.Fprintf(w, "xqd_queued_requests %d\n", s.exec.Queued())
	gauge("xqd_worker_slots", "Configured executor worker slots.")
	fmt.Fprintf(w, "xqd_worker_slots %d\n", s.exec.Workers())
	gauge("xqd_leased_workers", "Worker slots on loan to morsel workers of running queries.")
	fmt.Fprintf(w, "xqd_leased_workers %d\n", s.exec.Leased())
	gauge("xqd_query_workers", "Configured per-query morsel-parallelism target (0 = off).")
	fmt.Fprintf(w, "xqd_query_workers %d\n", s.cfg.QueryWorkers)

	gauge("xqd_plan_cache_size", "Compiled plans currently cached.")
	fmt.Fprintf(w, "xqd_plan_cache_size %d\n", pc.Size)
	gauge("xqd_plan_cache_capacity", "Plan cache LRU capacity.")
	fmt.Fprintf(w, "xqd_plan_cache_capacity %d\n", pc.Capacity)
	counter("xqd_plan_cache_hits_total", "Plan cache hits.")
	fmt.Fprintf(w, "xqd_plan_cache_hits_total %d\n", pc.Hits)
	counter("xqd_plan_cache_misses_total", "Plan cache misses (compilations).")
	fmt.Fprintf(w, "xqd_plan_cache_misses_total %d\n", pc.Misses)
	counter("xqd_plan_cache_evictions_total", "Plan cache LRU evictions.")
	fmt.Fprintf(w, "xqd_plan_cache_evictions_total %d\n", pc.Evictions)

	gauge("xqd_catalog_documents", "Documents registered in the catalog.")
	fmt.Fprintf(w, "xqd_catalog_documents %d\n", docs)
	gauge("xqd_catalog_bytes", "Total source bytes of registered documents.")
	fmt.Fprintf(w, "xqd_catalog_bytes %d\n", bytes)
	gauge("xqd_catalog_nodes", "Total stored nodes of registered documents.")
	fmt.Fprintf(w, "xqd_catalog_nodes %d\n", nodes)

	counter("xqd_slow_queries_total", "Requests exceeding the slow-query threshold.")
	fmt.Fprintf(w, "xqd_slow_queries_total %d\n", slowTotal)
	counter("xqd_profiled_requests_total", "Requests that carried an execution profile.")
	fmt.Fprintf(w, "xqd_profiled_requests_total %d\n", profiled)

	engineCounter := func(name, help string, v int64) {
		full := "xqd_engine_" + name
		counter(full, help)
		fmt.Fprintf(w, "%s %d\n", full, v)
	}
	engineCounter("xml_tokens_total", "XML tokens written by result serialization.", engine.XMLTokens)
	engineCounter("nodes_materialized_total", "Constructed trees materialized by the engine.", engine.NodesMaterialized)
	engineCounter("memo_hits_total", "Function memoization cache hits.", engine.MemoHits)
	engineCounter("memo_misses_total", "Function memoization cache misses.", engine.MemoMisses)
	engineCounter("index_hits_total", "Structural-join index cache hits.", engine.IndexHits)
	engineCounter("index_builds_total", "Structural-join index builds.", engine.IndexBuilds)
	engineCounter("twig_joins_total", "Holistic twig (TwigStack) joins executed.", engine.TwigJoins)
	engineCounter("interrupt_polls_total", "Engine interrupt-hook polls.", engine.InterruptPolls)
	engineCounter("doc_nodes_built_total", "Nodes appended to lazily parsed streaming documents.", engine.DocNodesBuilt)
	engineCounter("nodes_skipped_total", "Nodes skipped by static path projection (tokenized, never built).", engine.NodesSkipped)
	engineCounter("bytes_parsed_on_demand_total", "Streaming-input bytes pulled by on-demand parsing.", engine.BytesParsedOnDemand)
	engineCounter("stream_windows_total", "Windows opened by the event-driven streaming evaluator.", engine.StreamWindows)
	engineCounter("stream_results_total", "Results emitted by the event-driven streaming evaluator.", engine.StreamResults)
	engineCounter("stream_fallbacks_total", "Stream-mode executions that fell back to the store engine.", engine.StreamFallbacks)
	gauge("xqd_engine_stream_buffer_peak_bytes", "Largest window buffer any streaming execution held.")
	fmt.Fprintf(w, "xqd_engine_stream_buffer_peak_bytes %d\n", engine.StreamBufferPeakBytes)

	sc := s.subs
	gauge("xqd_subscriber_feeds_active", "Subscriber feeds (POST /subscribe) currently streaming.")
	fmt.Fprintf(w, "xqd_subscriber_feeds_active %d\n", sc.active.Load())
	counter("xqd_subscriber_feeds_total", "Subscriber feeds admitted.")
	fmt.Fprintf(w, "xqd_subscriber_feeds_total %d\n", sc.feeds.Load())
	counter("xqd_subscriptions_total", "Continuous queries registered across all feeds.")
	fmt.Fprintf(w, "xqd_subscriptions_total %d\n", sc.registered.Load())
	counter("xqd_subscription_results_total", "Result events delivered to subscribers.")
	fmt.Fprintf(w, "xqd_subscription_results_total %d\n", sc.results.Load())
	counter("xqd_subscription_fallbacks_total", "Store-required subscriptions (evaluated at feed end).")
	fmt.Fprintf(w, "xqd_subscription_fallbacks_total %d\n", sc.fallbacks.Load())
	gauge("xqd_subscription_buffer_peak_bytes", "Largest window buffer any subscription held.")
	fmt.Fprintf(w, "xqd_subscription_buffer_peak_bytes %d\n", sc.peakBuffer.Load())

	gauge("xqd_governed_bytes", "Live tracked bytes across running executions (resource governor).")
	fmt.Fprintf(w, "xqd_governed_bytes %d\n", s.gov.InUse())
	gauge("xqd_process_soft_limit_bytes", "Configured process memory soft cap (0 = off).")
	fmt.Fprintf(w, "xqd_process_soft_limit_bytes %d\n", s.gov.SoftLimit())
	counter("xqd_load_shed_total", "Admissions rejected because the governor was near the soft cap.")
	fmt.Fprintf(w, "xqd_load_shed_total %d\n", s.gov.Sheds())
	counter("xqd_budget_trips_total", "Executions that exceeded their memory budget, by route.")
	trips := st.budgetTripTotals()
	for _, route := range []string{"query", "subscribe"} {
		fmt.Fprintf(w, "xqd_budget_trips_total{route=%q} %d\n", route, trips[route])
	}
	counter("xqd_plan_choice_total", "Join strategies chosen by the cost-based planner, by strategy.")
	for _, pc := range []struct {
		strategy string
		v        int64
	}{
		{"navigation", engine.PlanNavigation},
		{"twig-join", engine.PlanTwigJoin},
	} {
		fmt.Fprintf(w, "xqd_plan_choice_total{strategy=%q} %d\n", pc.strategy, pc.v)
	}

	gauge("xqgo_build_info", "Build metadata of the serving binary (value is always 1).")
	fmt.Fprintf(w, "xqgo_build_info%s 1\n", buildInfoLabels())

	counter("xqd_traces_total", "Request traces captured.")
	fmt.Fprintf(w, "xqd_traces_total %d\n", s.traces.Total())
	gauge("xqd_trace_ring_size", "Completed traces retained for GET /traces.")
	fmt.Fprintf(w, "xqd_trace_ring_size %d\n", s.traces.Len())

	gauge("xqd_uptime_seconds", "Seconds since service start.")
	fmt.Fprintf(w, "xqd_uptime_seconds %s\n",
		strconv.FormatFloat(time.Since(start).Seconds(), 'g', -1, 64))
}
