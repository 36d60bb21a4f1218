package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"routinglens/internal/telemetry"
)

// withTrace is the outermost data-plane middleware: it assigns the
// request its trace ID (honoring an inbound W3C traceparent or bare
// X-Trace-Id so a caller's distributed trace threads through), echoes
// the ID on the response, installs the span collector the rest of the
// stack records into, and — once the response is done — files the
// finished trace in the bounded trace store, offers its latency as the
// endpoint's worst-recent exemplar, and reports it as a slow query when
// it blew the threshold. Cache replays pass through here like any other
// request: a replayed response still gets its own trace ID and its own
// latency observation.
func (s *Server) withTrace(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := resolveTraceID(r)
		col := telemetry.NewCollector()
		ctx := telemetry.WithTraceID(telemetry.WithCollector(r.Context(), col), id)
		hold := &netHolder{}
		ctx = context.WithValue(ctx, netHolderKey{}, hold)
		w.Header().Set(telemetry.TraceHeader, id)
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		d := time.Since(start)
		status := sw.Status
		if status == 0 {
			status = http.StatusOK
		}
		slow := s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery
		s.traces.Add(telemetry.TraceRecord{
			ID:       id,
			Endpoint: name,
			Status:   status,
			CacheHit: sw.Header().Get("X-Cache") == "hit",
			Start:    start,
			Duration: d,
			Slow:     slow,
			Spans:    col.Records(),
		})
		s.traces.ObserveExemplar(name, id, d)
		if slow {
			// A request that never resolved its network (an unknown {net})
			// logs and counts but has no event ring to land in.
			nw := hold.nw
			s.reg.Counter(MetricSlowQueries, telemetry.L("endpoint", name)).Inc()
			s.log.Warn("slow query",
				"endpoint", name, "net", nw.Name(), "trace_id", id, "status", status,
				"elapsed", d.Round(time.Microsecond), "threshold", s.cfg.SlowQuery)
			if nw != nil {
				nw.emit(EvtSlowQuery, slowQueryPayload{
					Endpoint: name, TraceID: id, Status: status, DurationMS: d.Milliseconds(),
				})
			}
		}
	})
}

// resolveTraceID picks the request's trace ID: an inbound W3C
// traceparent wins, then a bare X-Trace-Id, then a fresh ID — so a
// caller's distributed trace threads through whichever header it uses.
func resolveTraceID(r *http.Request) string {
	if id, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		return id
	}
	if v := r.Header.Get(telemetry.TraceHeader); telemetry.ValidTraceID(v) {
		return v
	}
	return telemetry.NewTraceID()
}

// withTraceID is the lightweight sibling of withTrace for routes outside
// the data-plane stack (reload, events, watch, and the global control
// plane): it assigns and echoes the trace ID — so every error envelope
// carries a non-empty trace_id — without the span collector or the
// trace-store filing, which would record connection lifetimes for
// streams like watch rather than service time.
func (s *Server) withTraceID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := resolveTraceID(r)
		w.Header().Set(telemetry.TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(telemetry.WithTraceID(r.Context(), id)))
	})
}

// traceSpan is the JSON rendering of one recorded span inside a trace.
type traceSpan struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Depth      int    `json:"depth"`
	Start      string `json:"start"`
	DurationUS int64  `json:"duration_us"`
	Err        string `json:"err,omitempty"`
}

// traceSummary is one row of the /debug/traces listing.
type traceSummary struct {
	ID         string `json:"id"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	Start      string `json:"start"`
	DurationUS int64  `json:"duration_us"`
	Slow       bool   `json:"slow,omitempty"`
	Spans      int    `json:"spans"`
}

func summarize(r telemetry.TraceRecord) traceSummary {
	return traceSummary{
		ID:         r.ID,
		Endpoint:   r.Endpoint,
		Status:     r.Status,
		CacheHit:   r.CacheHit,
		Start:      r.Start.UTC().Format(time.RFC3339Nano),
		DurationUS: r.Duration.Microseconds(),
		Slow:       r.Slow,
		Spans:      len(r.Spans),
	}
}

// handleTraces lists recent traces (newest first, ?limit=N) plus the
// per-endpoint worst-recent latency exemplars — the trace IDs the
// latency histograms point at.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, "limit: want an integer in [1,1000]")
			return
		}
		limit = n
	}
	recent := s.traces.Recent(limit)
	out := struct {
		Total     uint64                        `json:"total_traced"`
		Exemplars map[string]telemetry.Exemplar `json:"exemplars"`
		Traces    []traceSummary                `json:"traces"`
	}{
		Total:     s.traces.Total(),
		Exemplars: s.traces.Exemplars(),
		Traces:    make([]traceSummary, 0, len(recent)),
	}
	for _, rec := range recent {
		out.Traces = append(out.Traces, summarize(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace serves one trace by ID: /debug/traces/{id}, the target
// every X-Trace-Id response header and slow-query event resolves at.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "malformed trace ID")
		return
	}
	rec, ok := s.traces.Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "trace not resident (aged out of the bounded store?)")
		return
	}
	out := struct {
		traceSummary
		SpanList []traceSpan `json:"span_list"`
	}{traceSummary: summarize(rec)}
	for _, sp := range rec.Spans {
		out.SpanList = append(out.SpanList, traceSpan{
			Name:       sp.Name,
			Path:       sp.Path,
			Depth:      sp.Depth,
			Start:      sp.Start.UTC().Format(time.RFC3339Nano),
			DurationUS: sp.Duration.Microseconds(),
			Err:        sp.Err,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleVersion reports the build identity (also exported as the
// routinglens_build_info gauge) plus how many networks the daemon
// serves; per-network generations are on /v1/nets.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	out := struct {
		telemetry.Build
		Nets int `json:"nets,omitempty"`
	}{Build: s.build, Nets: len(s.netNames)}
	writeJSON(w, http.StatusOK, out)
}
