package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"routinglens/internal/telemetry"
)

// netCtxKey carries the resolved *Network through the request context.
type netCtxKey struct{}

func withNetCtx(ctx context.Context, nw *Network) context.Context {
	return context.WithValue(ctx, netCtxKey{}, nw)
}

// netFrom returns the request's resolved network (nil outside the
// network-scoped stacks).
func netFrom(ctx context.Context) *Network {
	nw, _ := ctx.Value(netCtxKey{}).(*Network)
	return nw
}

// netHolder lets an outer middleware (withTrace) learn which network an
// inner one (withNet) resolved: contexts only flow inward, so the outer
// layer plants the holder and the inner layer fills it.
type netHolder struct{ nw *Network }

type netHolderKey struct{}

// query assembles the middleware stack of one data-plane endpoint,
// outermost first: trace-ID assignment and span collection, metrics
// instrumentation, method enforcement, network resolution, panic
// recovery, the per-network concurrency limiter, the per-request
// timeout, the fault-injection hook, the per-network per-generation
// query cache, and finally the handler itself (which receives the
// pinned design generation and its validated, canonicalized query).
// withTrace sits outermost so every outcome the inner layers can
// produce — a cache replay, a shed 429, a timeout 504, a recovered
// panic — still gets a trace ID and a trace-store record. The control
// plane uses lighter stacks (see stackFor) — it must answer even when
// queries are saturated or timing out.
func (s *Server) query(name, method string, h func(http.ResponseWriter, *http.Request, *State, Query)) http.Handler {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		nw := netFrom(r.Context())
		if err := s.faults.Fire(r.Context(), "handler."+name); err != nil {
			writeError(w, r, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		st := nw.cur.Load()
		if st == nil {
			writeError(w, r, http.StatusServiceUnavailable, codeNoDesign, "no design loaded yet")
			return
		}
		q, err := ParseQuery(name, r.URL.RawQuery)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		if nw.qc == nil {
			h(w, r, st, q)
			return
		}
		// The key embeds the pinned generation's seq, so a response can
		// only ever be served to requests of the generation that computed
		// it — a reload swap makes every older entry unreachable. The
		// cache itself is per-network, so two fleets' identical queries
		// never cross.
		key := qkey(st.Seq, q)
		if e, ok := nw.qc.get(key); ok {
			s.reg.Counter(MetricQueryCacheHits, telemetry.L("endpoint", name)).Inc()
			e.serveTo(w)
			return
		}
		s.reg.Counter(MetricQueryCacheMisses, telemetry.L("endpoint", name)).Inc()
		bw := &bufferedResponse{header: make(http.Header)}
		h(bw, r, st, q)
		if bw.status == 0 || bw.status == http.StatusOK {
			// Only 200s are cached: errors stay cheap to recompute and a
			// transient failure must not be pinned for a generation.
			if ev := nw.qc.put(key, &qentry{
				status: http.StatusOK,
				ctype:  bw.header.Get("Content-Type"),
				body:   bw.body.Bytes(),
			}); ev > 0 {
				s.reg.Counter(MetricQueryCacheEvictions).Add(int64(ev))
				if emit, n := nw.cacheEvents.hit(int64(ev)); emit {
					nw.emit(EvtCachePressure, cachePressurePayload{Evicted: n})
				}
			}
			s.reg.Gauge(MetricQueryCacheEntries, telemetry.L("net", nw.name)).Set(float64(nw.qc.len()))
		}
		bw.flushTo(w)
	})
	stack := s.withTimeout(inner)
	stack = s.withShed(stack)
	stack = s.withRecovery(name, stack)
	stack = s.withNet(name, true, stack)
	stack = s.withMethod(method, stack)
	return s.withTrace(name, telemetry.InstrumentHandler(s.reg, name, stack))
}

// withMethod enforces the route's method, answering anything else with
// the shared 405 envelope.
func (s *Server) withMethod(method string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed, "use "+method)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withNet resolves the request's network from the {net} path value and
// threads it through the context; an unknown name is a 404 with code
// unknown_net. When observe is set, the request's latency lands in the
// per-network histogram.
func (s *Server) withNet(endpoint string, observe bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("net")
		nw := s.nets[name]
		if nw == nil {
			writeError(w, r, http.StatusNotFound, codeUnknownNet,
				fmt.Sprintf("unknown network %q; GET /v1/nets lists the fleet", name))
			return
		}
		if h, ok := r.Context().Value(netHolderKey{}).(*netHolder); ok {
			h.nw = nw
		}
		r = r.WithContext(withNetCtx(r.Context(), nw))
		if !observe {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		s.reg.Histogram(MetricNetLatency, nil,
			telemetry.L("net", nw.name), telemetry.L("endpoint", endpoint)).
			Observe(time.Since(start).Seconds())
	})
}

// withRecovery turns a handler panic into a 500 response and a
// routinglens_panics_recovered_total increment. The request dies; the
// process — and every later request, on every network — does not.
func (s *Server) withRecovery(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter(MetricPanicsRecovered).Inc()
				// Global routes resolve no network: their panics log and
				// count but have no event ring to land in.
				nw := netFrom(r.Context())
				s.log.Error("panic recovered; request failed, server continues",
					"endpoint", name, "net", nw.Name(), "panic", fmt.Sprint(p))
				if nw != nil {
					nw.emit(EvtPanic, panicPayload{
						Endpoint: name,
						Net:      nw.name,
						TraceID:  telemetry.TraceIDFrom(r.Context()),
					})
				}
				if !sw.Wrote() {
					writeError(sw, r, http.StatusInternalServerError, codeInternal,
						"internal error (panic recovered)")
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// withShed bounds the network's concurrently executing queries. A
// request that cannot take a slot immediately is rejected 429 with
// Retry-After — shedding keeps latency bounded for the requests that do
// get in, instead of queueing everyone into timeout. The limiter is
// per-network: a saturated network sheds its own load while the rest of
// the fleet keeps answering.
func (s *Server) withShed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		nw := netFrom(r.Context())
		select {
		case nw.sem <- struct{}{}:
			inflight := s.reg.Gauge(MetricInFlight, telemetry.L("net", nw.name))
			inflight.Add(1)
			defer func() {
				inflight.Add(-1)
				<-nw.sem
			}()
			next.ServeHTTP(w, r)
		default:
			s.reg.Counter(MetricShed, telemetry.L("net", nw.name)).Inc()
			// A shed storm is one event per second, not one per rejection:
			// the counter above keeps the true rate, the event stream keeps
			// its bounded-history narrative.
			if emit, n := nw.shedEvents.hit(1); emit {
				nw.emit(EvtShed, shedPayload{Count: n})
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusTooManyRequests, codeSaturated, "saturated; retry shortly")
		}
	})
}

// withTimeout bounds the client-visible latency of one request. The
// handler runs in a child goroutine writing to a buffered response; if
// it beats the deadline the buffer is flushed to the client, otherwise
// the client gets 504 immediately (the goroutine's leftover work is
// bounded by the handlers, which are short and allocation-only). A panic
// in the child is re-raised in the serving goroutine so withRecovery
// sees it.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		bw := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(bw, r.WithContext(ctx))
			close(done)
		}()
		select {
		case <-done:
			bw.flushTo(w)
		case p := <-panicked:
			panic(p)
		case <-ctx.Done():
			s.reg.Counter(MetricTimeouts).Inc()
			writeError(w, r, http.StatusGatewayTimeout, codeTimeout,
				fmt.Sprintf("request exceeded %v", s.cfg.RequestTimeout))
		}
	})
}

// bufferedResponse holds a handler's response until it is known to have
// finished in time. The serving goroutine only reads it after the done
// channel closes, which orders all handler writes before the read — no
// locking needed; on timeout it is abandoned unread.
type bufferedResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}
