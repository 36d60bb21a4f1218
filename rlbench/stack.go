package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"routinglens/internal/parsecache"
	"routinglens/internal/serve"
	"routinglens/internal/telemetry"
)

// stack is one in-process rlensd: the real internal/serve server with
// the daemon's default settings — parse cache on at its default bound,
// 1024-entry query cache, no snapshot directory, no compression, no
// watcher — serving one configuration directory on a loopback listener.
// The admission gate is off; the daemon's default gate only rejects
// losing half the routers, which no edit here does. The registry is
// private so counters start at zero.
type stack struct {
	srv    *serve.Server
	reg    *telemetry.Registry
	net    string
	base   string // http://127.0.0.1:PORT/v1/nets/<net>/
	cancel context.CancelFunc
	done   chan error
}

// startStack boots a stack the way cmd/rlensd does — analyze every
// network, then listen and serve — and returns it with its set-up time:
// from the first call until /readyz answers 200.
func startStack(dir, netName string, hc *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{
		Dir:        dir,
		ParseCache: parsecache.New(parsecache.DefaultMaxEntries, 0),
		Registry:   reg,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, 0, err
	}
	if err := srv.ReloadAll(context.Background()); err != nil {
		return nil, 0, fmt.Errorf("initial analysis: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{
		srv: srv, reg: reg, net: netName, cancel: cancel,
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String() + "/v1/nets/" + netName + "/",
	}
	go func() { st.done <- srv.Run(ctx, ln, nil) }()
	resp, err := hc.Get("http://" + ln.Addr().String() + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// stop shuts the server down and waits for Run to return.
func (st *stack) stop() error {
	st.cancel()
	return <-st.done
}

// counter reads one counter series from the stack's registry.
func (st *stack) counter(name string, labels ...telemetry.Label) int64 {
	return st.reg.Counter(name, labels...).Value()
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
	hit    bool // served from the query cache
	lat    time.Duration
}

// do runs one request and reads the whole body; lat spans the send to
// the last body byte.
func do(hc *http.Client, method, url string) (reply, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: buf.Bytes(), hit: resp.Header.Get("X-Cache") == "hit", lat: time.Since(t0)}
	return r, err
}

// local runs one GET through the daemon's HTTP handler in-process — the
// handler rlensd's http.Server runs: routing, middleware, admission,
// the query cache and JSON encoding — without the loopback socket. lat
// spans the call. On a shared 2-CPU VM the socket round trip took a
// third to a half of a reader query and moved with the host's load, not
// with routinglens; without it the reader's goroutine never sleeps
// between queries, so its latency is the server's service time.
func (st *stack) local(path string) reply {
	req := httptest.NewRequest("GET", "/v1/nets/"+st.net+"/"+path, nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	st.srv.Handler().ServeHTTP(rec, req)
	lat := time.Since(t0)
	return reply{status: rec.Code, body: rec.Body.Bytes(), hit: rec.Header().Get("X-Cache") == "hit", lat: lat}
}

// seqOf extracts the generation a /v1 response was answered from.
func seqOf(body []byte) (int64, error) {
	var v struct {
		Seq *int64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	if v.Seq == nil {
		return 0, fmt.Errorf("response has no seq")
	}
	return *v.Seq, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		// Provider-tier reloads take seconds; a hung server must still
		// end the run well inside its time limit.
		Timeout: 60 * time.Second,
	}
}
