// Command perfbench is the repository benchmark: it runs one named workload
// against the system from outside (the xqd HTTP handler in-process, the
// public xqgo API, the Subscriber), checks every output against references
// computed by its own generators, and prints the metrics as one JSON line.
//
//	perfbench --workload ingest|catalog|fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload with spans around every call into the system, replays the
// operations' inputs through each layer's entry point, and reports the
// per-layer metrics. Spans and per-layer breakdowns are written under
// .bench_out/ in the working directory. See README.md for the workloads and
// the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// tally counts checked operations; a failure is a non-2xx reply, an error,
// or an output that differs from its reference.
type tally struct {
	attempted, failed int64
	firstErr          string
}

func (t *tally) add(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = what
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

var workloads = map[string]func(config) (report, error){
	"ingest":  runIngest,
	"catalog": runCatalog,
	"fanout":  runFanout,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, catalog or fanout")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: per-layer metrics from a traced run and a layer replay")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|catalog|fanout --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish builds the report from a tally, logging the first failure.
func finish(t tally, metrics map[string]metric) report {
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n", t.failed, t.attempted, t.firstErr)
	}
	fmt.Fprintf(os.Stderr, "perfbench: failed_ratio %g (%d/%d)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	return report{Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics adds latency_p50_ms and latency_p99_ms from samples in ms.
func latencyMetrics(m map[string]metric, lat []float64) error {
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return fmt.Errorf("latency p50: %w", err)
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return fmt.Errorf("latency p99: %w", err)
	}
	m["latency_p50_ms"] = metric{p50, "ms"}
	m["latency_p99_ms"] = metric{p99, "ms"}
	return nil
}

// minLatencySamples is the fewest latency samples a run collects, so that
// the p99 keeps minBeyond samples above it even on a slow host.
const minLatencySamples = 1100

// window says which operations a loop runs: from index first, either
// exactly count of them or, when count < 0, for d and then on until floor
// have completed, for at most 3d in all.
type window struct {
	first, count int
	d            time.Duration
	floor        int
}

func timed(d time.Duration, floor int) window { return window{count: -1, d: d, floor: floor} }

// more reports whether a loop that started at start and has completed n
// operations goes on.
func (w window) more(start time.Time, n int) bool {
	if w.count >= 0 {
		return n < w.count
	}
	el := time.Since(start)
	return el < w.d || n < w.floor && el < 3*w.d
}

// interleave measures tracing overhead: it runs block b untraced and then
// traced with the same operations, for b = 0, 1, ... until d has passed,
// and returns the total wall time of each side.
func interleave(d time.Duration, tr *Tracer, block func(b int, tr *Tracer) (time.Duration, error)) (plain, traced time.Duration, err error) {
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < d; b++ {
		p, err := block(b, nil)
		if err != nil {
			return 0, 0, err
		}
		t, err := block(b, tr)
		if err != nil {
			return 0, 0, err
		}
		plain += p
		traced += t
	}
	return plain, traced, nil
}

// timeSetup times n repetitions of batch set-ups each and returns the
// median duration of one set-up in seconds. Batching lets sub-millisecond
// set-ups be timed well above the clock's and the scheduler's jitter.
func timeSetup(n, batch int, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		ds = append(ds, time.Since(t).Seconds()/float64(batch))
	}
	return median(ds), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// outDir is where traced runs write spans and breakdowns.
const outDir = ".bench_out"

// writeTrace writes the spans and the per-layer breakdown of a traced run.
func writeTrace(workload string, seed int64, spans []Span, breakdown map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "breakdown": breakdown, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans and breakdown written to", path)
	return nil
}

// printBreakdown logs a sorted name/value table to standard error.
func printBreakdown(title string, vals map[string]float64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s = %.6g\n", title, k, vals[k])
	}
}
