package serve

import (
	"fmt"
	"net/http"
	"strings"

	"routinglens/internal/telemetry"
)

// routeKind selects the middleware stack a route runs behind.
type routeKind int

const (
	// routeGlobal is the control plane shared by the whole fleet:
	// instrumentation and panic recovery only, so health checks and
	// metrics answer even when queries are saturated or timing out.
	routeGlobal routeKind = iota
	// routeQuery is a per-network data-plane endpoint behind the full
	// robustness stack: tracing, per-network shedding, timeout, fault
	// hook, query cache.
	routeQuery
	// routeNetCtl is a per-network control endpoint (reload, events,
	// watch): network-scoped but exempt from the query limiter and the
	// buffering timeout — reloads are deliberately slow and watches are
	// deliberately long-lived.
	routeNetCtl
)

// routeSpec declares one route of the daemon's HTTP surface. The whole
// surface is this table: buildHandler mounts it, and RouteTable renders
// it for the golden-route regression test.
type routeSpec struct {
	method   string
	pattern  string
	endpoint string
	kind     routeKind
}

// routes is the daemon's complete HTTP surface, in documentation order:
// fleet-wide control plane, then the per-network API.
var routes = []routeSpec{
	{method: "GET", pattern: "/healthz", endpoint: "healthz", kind: routeGlobal},
	{method: "GET", pattern: "/readyz", endpoint: "readyz", kind: routeGlobal},
	{method: "GET", pattern: "/metrics", endpoint: "metrics", kind: routeGlobal},
	{method: "GET", pattern: "/v1/nets", endpoint: "nets", kind: routeGlobal},
	{method: "GET", pattern: "/v1/version", endpoint: "version", kind: routeGlobal},
	{method: "GET", pattern: "/debug/traces", endpoint: "traces", kind: routeGlobal},
	{method: "GET", pattern: "/debug/traces/{id}", endpoint: "trace", kind: routeGlobal},

	{method: "GET", pattern: "/v1/nets/{net}/summary", endpoint: "summary", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/pathway", endpoint: "pathway", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/reach", endpoint: "reach", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/whatif", endpoint: "whatif", kind: routeQuery},
	{method: "POST", pattern: "/v1/nets/{net}/reload", endpoint: "reload", kind: routeNetCtl},
	{method: "POST", pattern: "/v1/nets/{net}/configs", endpoint: "configs", kind: routeNetCtl},
	{method: "POST", pattern: "/v1/nets/{net}/configs/rollback", endpoint: "rollback", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/quarantine", endpoint: "quarantine", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/events", endpoint: "events", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/watch", endpoint: "watch", kind: routeNetCtl},
}

// RouteTable renders the full route surface, one line per route — the
// contract the golden-route test (testdata/routes.golden) pins, so an
// accidental route change fails CI instead of surprising a consumer.
func RouteTable() string {
	var b strings.Builder
	for _, rt := range routes {
		fmt.Fprintf(&b, "%-4s %-28s endpoint=%s\n", rt.method, rt.pattern, rt.endpoint)
	}
	return b.String()
}

// buildHandler mounts the route table plus a catch-all that speaks the
// same JSON error envelope as everything else.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.stackFor(rt))
	}
	mux.Handle("/", s.withTraceID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, codeNotFound,
			"no such endpoint; GET /v1/nets lists the fleet")
	})))
	return mux
}

// stackFor assembles the middleware stack one route runs behind.
func (s *Server) stackFor(rt routeSpec) http.Handler {
	switch rt.kind {
	case routeQuery:
		return s.query(rt.endpoint, rt.method, s.queryHandler(rt.endpoint))
	case routeNetCtl:
		h := s.netCtlHandler(rt.endpoint)
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h(w, r, netFrom(r.Context()))
		})
		// Watch streams indefinitely; observing its latency would record
		// connection lifetimes, not service time.
		stack := s.withRecovery(rt.endpoint, inner)
		stack = s.withNet(rt.endpoint, rt.endpoint != "watch", stack)
		stack = s.withMethod(rt.method, stack)
		stack = s.withTraceID(stack)
		return telemetry.InstrumentHandler(s.reg, rt.endpoint, stack)
	default:
		h := s.globalHandler(rt.endpoint)
		stack := s.withRecovery(rt.endpoint, h)
		stack = s.withMethod(rt.method, stack)
		stack = s.withTraceID(stack)
		return telemetry.InstrumentHandler(s.reg, rt.endpoint, stack)
	}
}

// queryHandler maps a data-plane endpoint name to its handler.
func (s *Server) queryHandler(endpoint string) func(http.ResponseWriter, *http.Request, *State, Query) {
	switch endpoint {
	case "summary":
		return s.handleSummary
	case "pathway":
		return s.handlePathway
	case "reach":
		return s.handleReach
	case "whatif":
		return s.handleWhatif
	}
	panic("serve: no query handler for endpoint " + endpoint)
}

// netCtlHandler maps a per-network control endpoint name to its handler.
func (s *Server) netCtlHandler(endpoint string) func(http.ResponseWriter, *http.Request, *Network) {
	switch endpoint {
	case "reload":
		return s.handleReload
	case "configs":
		return s.handleConfigs
	case "rollback":
		return s.handleRollback
	case "quarantine":
		return s.handleQuarantine
	case "events":
		return s.handleEvents
	case "watch":
		return s.handleWatch
	}
	panic("serve: no net-control handler for endpoint " + endpoint)
}

// globalHandler maps a fleet-wide control endpoint name to its handler.
func (s *Server) globalHandler(endpoint string) http.HandlerFunc {
	switch endpoint {
	case "healthz":
		return s.handleHealthz
	case "readyz":
		return s.handleReadyz
	case "metrics":
		return s.handleMetrics
	case "nets":
		return s.handleNets
	case "version":
		return s.handleVersion
	case "traces":
		return s.handleTraces
	case "trace":
		return s.handleTrace
	}
	panic("serve: no global handler for endpoint " + endpoint)
}
