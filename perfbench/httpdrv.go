package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"xqgo/internal/service"
)

// recorder is an in-process http.ResponseWriter: the benchmark calls the
// service's handler directly, with no sockets.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) Flush() {}

func (r *recorder) reset() {
	r.hdr = make(http.Header)
	r.status = 0
	r.body.Reset()
}

// client drives one service handler the way an xqd caller would.
type client struct {
	h   http.Handler
	rec recorder
}

func newClient(svc *service.Service) *client {
	return &client{h: service.NewHTTPHandler(svc)}
}

func newService() *service.Service {
	// The defaults xqd ships with: Workers = GOMAXPROCS, QueryWorkers 0,
	// tracing on.
	return service.New(service.Config{})
}

// do serves one request and returns the status and body (valid until the
// next call).
func (c *client) do(method, target, contentType string, body io.Reader) (int, []byte) {
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		panic(err) // targets are built by the benchmark itself
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.rec.reset()
	c.h.ServeHTTP(&c.rec, req)
	if c.rec.status == 0 {
		c.rec.status = http.StatusOK // a handler that writes nothing answers 200
	}
	return c.rec.status, c.rec.body.Bytes()
}

// streamQueryTarget is the URL of a streamed POST /query, whose body is the
// XML input document.
func streamQueryTarget(query string) string {
	return "/query?query=" + url.QueryEscape(query)
}

// queryBody is the JSON body of a POST /query against a catalog document.
type queryBody struct {
	Query string         `json:"query"`
	Doc   string         `json:"doc"`
	Vars  map[string]any `json:"vars,omitempty"`
}

// jsonQuery sends a JSON POST /query and returns the decoded result text.
func (c *client) jsonQuery(qb queryBody) (string, error) {
	raw, err := json.Marshal(qb)
	if err != nil {
		return "", err
	}
	status, body := c.do("POST", "/query", "application/json", bytes.NewReader(raw))
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("decode response: %w", err)
	}
	return resp.Result, nil
}

// putDocument registers (or replaces) a catalog document.
func (c *client) putDocument(name string, xml []byte) error {
	status, body := c.do("PUT", "/documents/"+name, "application/xml", bytes.NewReader(xml))
	if status != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d: %s", name, status, bytes.TrimSpace(body))
	}
	return nil
}
