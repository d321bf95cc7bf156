package xqgo_test

// End-to-end tests of the xqd service layer over a real TCP listener: the
// acceptance workload for the serving subsystem — register a generated
// document over HTTP, hammer one query concurrently and verify plan-cache
// reuse and identical results, saturate the admission queue, and exceed a
// deadline. A subprocess smoke test exercises the cmd/xqd binary itself.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xqgo"
	"xqgo/internal/leakcheck"
	"xqgo/internal/service"
	"xqgo/internal/workload"
)

// startServer serves the handler on a real ephemeral TCP port and returns
// the base URL.
func startServer(t *testing.T, svc *service.Service) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHTTPHandler(svc)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

type queryResp struct {
	Result string `json:"result"`
	Cached bool   `json:"cached"`
	Micros int64  `json:"micros"`
	Error  string `json:"error"`
}

func getStats(t *testing.T, base string) service.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestXqdEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	svc := service.New(service.Config{
		Workers:       8,
		QueueDepth:    256,
		PlanCacheSize: 32,
		Options:       xqgo.Options{Strategy: xqgo.ForceTwig, MemoizeFunctions: true},
	})
	base := startServer(t, svc)

	// Register a workload-generated Order document over HTTP.
	doc := workload.Orders(workload.OrdersConfig{Lines: 300, Sellers: 5, Seed: 7})
	xml := workload.DocToXML(doc)
	req, err := http.NewRequest(http.MethodPut, base+"/documents/orders", strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info service.DocInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	if info.Bytes != int64(len(xml)) || info.Nodes != doc.NumNodes() {
		t.Errorf("info = %+v, want bytes=%d nodes=%d", info, len(xml), doc.NumNodes())
	}

	// The paper's Q1 shape over the registered document.
	q := map[string]any{
		"query": `for $line in /Order/OrderLine
			where $line/SellersID = 1
			return <lineItem>{string($line/Item/ID)}</lineItem>`,
		"doc": "orders",
	}

	// Warm the plan cache, capture the reference result.
	r0, body := postJSON(t, base+"/query", q)
	if r0.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d: %s", r0.StatusCode, body)
	}
	var ref queryResp
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ref.Result, "<lineItem>SKU-") {
		t.Fatalf("unexpected result: %.120s", ref.Result)
	}

	// 100 concurrent requests: identical results, served from the cache.
	const n = 100
	results := make([]queryResp, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(q)
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Result != ref.Result {
			t.Fatalf("request %d produced a different result", i)
		}
		if !results[i].Cached {
			t.Errorf("request %d missed the plan cache", i)
		}
	}

	snap := getStats(t, base)
	if snap.Served < n+1 {
		t.Errorf("served = %d, want >= %d", snap.Served, n+1)
	}
	if snap.PlanCache.HitRatio <= 0.9 {
		t.Errorf("plan-cache hit ratio = %.3f, want > 0.9 (%+v)", snap.PlanCache.HitRatio, snap.PlanCache)
	}
	if snap.P99Micros < snap.P50Micros || snap.P50Micros <= 0 {
		t.Errorf("percentiles look wrong: p50=%d p99=%d", snap.P50Micros, snap.P99Micros)
	}

	// Streamed output matches the materialized result.
	qs := map[string]any{"query": q["query"], "doc": "orders", "stream": true}
	rs, streamed := postJSON(t, base+"/query", qs)
	if rs.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", rs.StatusCode)
	}
	if string(streamed) != ref.Result {
		t.Errorf("streamed result differs from materialized result")
	}

	// Variable binding over the JSON endpoint (typed slices).
	qv := map[string]any{
		"query": `declare variable $ids external; count(/Order/OrderLine[SellersID = $ids])`,
		"doc":   "orders",
		"vars":  map[string]any{"ids": []int{1, 2}},
	}
	rv, body := postJSON(t, base+"/query", qv)
	if rv.StatusCode != http.StatusOK {
		t.Fatalf("vars status = %d: %s", rv.StatusCode, body)
	}

	// Document lifecycle: list, info, evict, 404 afterwards.
	resp, err = http.Get(base + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	var list []service.DocInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "orders" {
		t.Errorf("list = %+v", list)
	}
	del, _ := http.NewRequest(http.MethodDelete, base+"/documents/orders", nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete status = %d", resp.StatusCode)
	}
	rq, body := postJSON(t, base+"/query", q)
	if rq.StatusCode != http.StatusNotFound {
		t.Errorf("query after evict status = %d: %s", rq.StatusCode, body)
	}
}

// slowQuery runs long enough to occupy a worker until its deadline.
const slowQuery = "count(for $i in 1 to 2000000000 return $i)"

func TestXqdAdmissionControlSaturation(t *testing.T) {
	leakcheck.Check(t)
	svc := service.New(service.Config{
		Workers:        1,
		QueueDepth:     1,
		DefaultTimeout: 5 * time.Second,
	})
	base := startServer(t, svc)

	// Occupy the single worker and the single queue slot with slow queries.
	release := make([]chan struct{}, 2)
	done := make([]chan int, 2)
	for i := range release {
		release[i] = make(chan struct{})
		done[i] = make(chan int, 1)
		go func(i int) {
			data, _ := json.Marshal(map[string]any{"query": slowQuery, "timeoutMs": 3000})
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(data))
			if err != nil {
				done[i] <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done[i] <- resp.StatusCode
		}(i)
	}

	// Wait until the server reports one executing and one queued request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := getStats(t, base)
		if snap.InFlight >= 1 && snap.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never saturated: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next request must be rejected immediately with 503.
	start := time.Now()
	r, body := postJSON(t, base+"/query", map[string]any{"query": "1+1"})
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", r.StatusCode, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v, want fast-fail", d)
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("body = %s", body)
	}

	// Both slow requests eventually terminate (by timeout), not hang.
	for i := range done {
		select {
		case code := <-done[i]:
			if code != http.StatusGatewayTimeout {
				t.Errorf("slow request %d status = %d, want 504", i, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("slow request %d never returned", i)
		}
	}
	snap := getStats(t, base)
	if snap.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", snap.Rejected)
	}
	if snap.Timeouts < 2 {
		t.Errorf("timeouts = %d, want >= 2", snap.Timeouts)
	}
}

func TestXqdDeadlineExceeded(t *testing.T) {
	leakcheck.Check(t)
	svc := service.New(service.Config{Workers: 2})
	base := startServer(t, svc)

	start := time.Now()
	r, body := postJSON(t, base+"/query", map[string]any{
		"query":     slowQuery,
		"timeoutMs": 50,
	})
	elapsed := time.Since(start)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", r.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timed-out request took %v — deadline not propagated into evaluation", elapsed)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("body = %s", body)
	}
}

// TestXqdDaemonSmoke runs the real cmd/xqd binary on an ephemeral port and
// drives it over HTTP.
func TestXqdDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "xqd")
	if _, errOut, err := runTool(t, "build", "-o", bin, "./cmd/xqd"); err != nil {
		t.Fatalf("go build ./cmd/xqd: %v\n%s", err, errOut)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The daemon announces its bound address on stdout.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("no startup line from xqd")
	}
	line := sc.Text()
	const prefix = "xqd listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("startup line = %q", line)
	}
	base := "http://" + strings.TrimPrefix(line, prefix)

	req, _ := http.NewRequest(http.MethodPut, base+"/documents/bib",
		strings.NewReader(`<bib><book year="1994"><title>TCP/IP</title></book></bib>`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status = %d", resp.StatusCode)
	}

	r, body := postJSON(t, base+"/query", map[string]any{
		"query": "string(/bib/book/title)", "doc": "bib",
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", r.StatusCode, body)
	}
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Result != "TCP/IP" {
		t.Errorf("result = %q", qr.Result)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// TestXqdGracefulShutdown: SIGTERM drains the daemon — a live /subscribe
// feed (client still mid-upload) receives a terminal "goodbye" SSE event and
// the process exits cleanly within the drain deadline. The subscription is
// driven over raw TCP with chunked transfer encoding, so the half-finished
// request body and the streaming response stay fully under test control.
func TestXqdGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "xqd")
	if _, errOut, err := runTool(t, "build", "-o", bin, "./cmd/xqd"); err != nil {
		t.Fatalf("go build ./cmd/xqd: %v\n%s", err, errOut)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("no startup line from xqd")
	}
	addr := strings.TrimPrefix(sc.Text(), "xqd listening on ")

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))

	// Open the subscription with a chunked body that never finishes: one
	// complete book arrives, then the feed goes silent.
	fmt.Fprintf(conn, "POST /subscribe?query=%%2Fbib%%2Fbook HTTP/1.1\r\n"+
		"Host: %s\r\nTransfer-Encoding: chunked\r\nContent-Type: application/xml\r\n\r\n", addr)
	chunk := "<bib><book><title>live</title></book>"
	fmt.Fprintf(conn, "%x\r\n%s\r\n", len(chunk), chunk)

	// The first result proves the subscription is live and streaming.
	waitConn := func(substr string, got *strings.Builder) {
		t.Helper()
		buf := make([]byte, 4096)
		for !strings.Contains(got.String(), substr) {
			n, err := conn.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				t.Fatalf("waiting for %q: %v (got %q)", substr, err, got.String())
			}
		}
	}
	var stream strings.Builder
	waitConn("event: result", &stream)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitConn("event: goodbye", &stream)

	// Drain stdout to EOF (the process closing it) before Wait — Wait tears
	// the pipe down and would race the banner away.
	tailCh := make(chan string, 1)
	go func() {
		var tail strings.Builder
		for sc.Scan() {
			tail.WriteString(sc.Text())
		}
		tailCh <- tail.String()
	}()
	var tail string
	select {
	case tail = <-tailCh:
	case <-time.After(10 * time.Second):
		t.Fatal("xqd did not exit within the drain deadline")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("xqd exited with error: %v", err)
	}
	if !strings.Contains(tail, "xqd shut down") {
		t.Errorf("missing shutdown banner in stdout: %q", tail)
	}
}
