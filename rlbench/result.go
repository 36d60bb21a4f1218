package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/serve"
	"routinglens/internal/telemetry"
)

// row is one reported metric with the number of samples behind it.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	rows      []row // the metrics the JSON line carries
	extra     []row // printed for reference only
	meta      string
	rowTag    string // seed, GOMAXPROCS and Go version, on every metric line
	failures  []string
}

// counters are the server-side counts read before the server stops.
type counters struct {
	parseHits, parseMisses int64
	qcHits, qcMisses       int64
	shed                   int64
}

func (r *runner) layerCounters() counters {
	st := r.stk
	c := counters{
		parseHits:   st.counter(core.MetricCacheHits) - r.parseBase[0],
		parseMisses: st.counter(core.MetricCacheMisses) - r.parseBase[1],
		shed:        st.counter(serve.MetricShed, telemetry.L("net", st.net)),
	}
	for _, e := range []string{"pathway", "reach", "whatif", "summary"} {
		c.qcHits += st.counter(serve.MetricQueryCacheHits, telemetry.L("endpoint", e))
		c.qcMisses += st.counter(serve.MetricQueryCacheMisses, telemetry.L("endpoint", e))
	}
	return c
}

func (r *runner) result(lc counters) *result {
	res := &result{
		attempted: r.attempted.Load(),
		failed:    r.failed.Load(),
		failures:  r.failures,
	}
	res.correct = res.failed == 0 && res.attempted > 0
	trace := 0
	if r.tr != nil {
		trace = 1
	}
	res.rowTag = fmt.Sprintf("seed=%d gomaxprocs=%d go=%s", r.seed, runtime.GOMAXPROCS(0), runtime.Version())
	// The query metrics are medians over the reader window's one-second
	// slices, so a few seconds the host stole do not move them.
	p50s, rates := perSlice(r.samples, r.readWindow)
	res.meta = fmt.Sprintf("workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d go=%s setups=%d window_s=%.3g routers=%d reloads=%d queries=%d query_slices=%d checks=%d",
		r.sp.name, r.seed, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		setups, r.window.Seconds(), len(r.c.routers), len(r.reloadRT), len(r.queries), len(p50s), r.checks)
	e2e := []row{
		{"setup_s", median(secs(r.setupS)), "s", len(r.setupS)},
		{"reload_p50_ms", median(ms(r.reloadRT)), "ms", len(r.reloadRT)},
		{"query_p50_us", median(p50s), "us", len(r.queries)},
		{"query_rps", median(rates), "1/s", len(r.queries)},
		{"live_heap_mib", r.liveHeapMiB, "MiB", 1},
	}
	// Printed, not reported: error_rate reads 0, and the first what-if
	// did not repeat within the bounds a result may carry (see README).
	info := []row{
		{"error_rate", float64(res.failed) / float64(max(res.attempted, 1)), "ratio", int(res.attempted)},
		{"whatif_first_setup_ms", median(ms(r.whatifSetup)), "ms", len(r.whatifSetup)},
		{"whatif_first_swap_ms", median(ms(r.whatifSwap)), "ms", len(r.whatifSwap)},
	}
	if r.tr == nil {
		res.rows = e2e
		res.extra = append(info, row{"query_p99_us", pct(us(r.queries), 99), "us", len(r.queries)})
		// Read, never reset: reloads still leak their spans into the
		// process-global collector, and live_heap_mib includes them.
		res.extra = append(res.extra, row{"telemetry.default_collector_spans",
			float64(len(telemetry.DefaultCollector.Records())), "count", 1})
		if hwm, ok := peakRSSMiB(); ok {
			res.extra = append(res.extra, row{"peak_rss_mib", hwm, "MiB", 1})
		}
		if len(r.reachAfterSwap) > 0 {
			res.extra = append(res.extra, row{"reach_after_swap_ms", median(ms(r.reachAfterSwap)), "ms", len(r.reachAfterSwap)})
		}
		return res
	}
	res.rows = r.layerRows(lc)
	for _, e := range append(e2e, info...) {
		e.name = "traced." + e.name
		res.extra = append(res.extra, e)
	}
	// Two clients never fill the server's admission slots, so nothing
	// is shed, and a shed request would fail the run as a non-200
	// anyway; the count is printed, not reported.
	res.extra = append(res.extra, row{"serve.shed", float64(lc.shed), "count", 1})
	return res
}

// spanMetrics maps a layer span to its metric name and unit scale.
var spanMetrics = []struct {
	span, metric, unit string
}{
	{"ciscoparse.parse", "ciscoparse.parse_ms", "ms"},
	{"topology.build", "topology.build_ms", "ms"},
	{"procgraph.build", "procgraph.build_ms", "ms"},
	{"instance.compute", "instance.compute_ms", "ms"},
	{"classify", "classify.ms", "ms"},
	{"addrspace.discover", "addrspace.discover_ms", "ms"},
	{"filters.analyze", "filters.analyze_ms", "ms"},
	{"designdiff.compare", "designdiff.compare_ms", "ms"},
	{"simroute.run", "simroute.run_ms", "ms"},
	{"reach.views", "reach.views_ms", "ms"},
	{"whatif.analyze", "whatif.analyze_ms", "ms"},
	{"reach.block_query", "reach.block_query_us", "us"},
	{"pathway.compute", "pathway.compute_us", "us"},
}

// layerRows derives the per-layer metrics from the spans: the load
// layers from the replays of the workload's loads, the query layers
// from the traced reader queries.
func (r *runner) layerRows(lc counters) []row {
	spans := r.tr.finish()
	replays := make(map[int]bool)
	for _, rl := range r.reloads {
		replays[rl.replay] = true
	}
	self := make(map[string][]float64) // µs
	byReplay := make(map[int]map[string]float64)
	for _, s := range spans {
		if replays[s.Parent] || s.Name == "pathway.compute" || s.Name == "reach.block_query" {
			self[s.Name] = append(self[s.Name], s.SelfUS)
		}
		if replays[s.Parent] {
			if byReplay[s.Parent] == nil {
				byReplay[s.Parent] = make(map[string]float64)
			}
			byReplay[s.Parent][s.Name] += s.SelfUS
		}
	}
	var rows []row
	for _, m := range spanMetrics {
		v := self[m.span]
		scale := 1e-3
		if m.unit == "us" {
			scale = 1
		}
		rows = append(rows, row{m.metric, median(v) * scale, m.unit, len(v)})
	}

	// The unattributed share of each load: its round trip minus the
	// self times of the layers its replay re-ran.
	var unattr []float64
	for _, rl := range r.reloads {
		sum := 0.0
		for _, name := range loadLayers {
			sum += byReplay[rl.replay][name]
		}
		unattr = append(unattr, float64(rl.rt.Microseconds())-sum)
	}
	var overhead []float64
	for _, p := range r.pairs {
		overhead = append(overhead, float64(p.handler-p.direct)/1e3)
	}
	counts := func(f func(replayCounts) float64) []float64 {
		var v []float64
		for _, c := range r.counts {
			v = append(v, f(c))
		}
		return v
	}
	var procRIB, routerRIB []float64
	for _, c := range r.counts {
		if c.ribCounted {
			procRIB = append(procRIB, float64(c.procRIB))
			routerRIB = append(routerRIB, float64(c.routerRIB))
		}
	}
	rows = append(rows,
		row{"parsecache.hit_ratio", ratio(lc.parseHits, lc.parseHits+lc.parseMisses), "ratio", int(lc.parseHits + lc.parseMisses)},
		row{"core.pipeline_alloc_mib", median(counts(func(c replayCounts) float64 { return c.pipelineAllocMiB })), "MiB", len(r.counts)},
		row{"simroute.rounds", median(counts(func(c replayCounts) float64 { return float64(c.rounds) })), "count", len(r.counts)},
		row{"simroute.proc_rib_entries", median(procRIB), "count", len(procRIB)},
		row{"simroute.router_rib_entries", median(routerRIB), "count", len(routerRIB)},
		row{"simroute.alloc_mib", median(counts(func(c replayCounts) float64 { return c.simAllocMiB })), "MiB", len(r.counts)},
		row{"simroute.live_mib", median(counts(func(c replayCounts) float64 { return c.simLiveMiB })), "MiB", len(r.counts)},
		row{"serve.overhead_us", median(overhead), "us", len(overhead)},
		row{"serve.qcache_hit_ratio", ratio(lc.qcHits, lc.qcHits+lc.qcMisses), "ratio", int(lc.qcHits + lc.qcMisses)},
		row{"serve.query_p99_us", pct(us(r.queries), 99), "us", len(r.queries)},
		row{"serve.reload_unattributed_ms", median(unattr) / 1e3, "ms", len(unattr)},
	)
	plain, traced := median(us(r.gapQ[0])), median(us(r.gapQ[1]))
	gap := 0.0
	if plain > 0 {
		gap = 100 * (traced - plain) / plain
	}
	rows = append(rows, row{"trace.overhead_pct", gap, "%", len(r.gapQ[1])})

	meta := map[string]any{"workload": r.sp.name, "seed": r.seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "go": runtime.Version()}
	path := filepath.Join(".bench_build", "traces", r.sp.name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = writeTrace(path, meta, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlbench: writing %s: %v\n", path, err)
		}
	}
	return rows
}

// print writes the human-readable report and then, last, the JSON
// result line.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "rlbench: %s\n", res.meta)
	for _, rw := range res.rows {
		fmt.Fprintf(w, "rlbench: metric %-30s %14.4f %-6s n=%d %s\n", rw.name, rw.value, rw.unit, rw.n, res.rowTag)
	}
	for _, rw := range res.extra {
		fmt.Fprintf(w, "rlbench: info   %-30s %14.4f %-6s n=%d %s\n", rw.name, rw.value, rw.unit, rw.n, res.rowTag)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "rlbench: FAILED %s\n", f)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(res.rows))
	for _, rw := range res.rows {
		ms[rw.name] = metric{rw.value, rw.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	fmt.Fprintln(w, string(line))
}

func secs(d []time.Duration) []float64 { return scaled(d, 1e9) }
func ms(d []time.Duration) []float64   { return scaled(d, 1e6) }
func us(d []time.Duration) []float64   { return scaled(d, 1e3) }

func scaled(d []time.Duration, div float64) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / div
	}
	return out
}

func median(v []float64) float64 { return pct(v, 50) }

// pct is the p-th percentile by linear interpolation between closest
// ranks; 0 for no samples.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(x))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMiB reads the process's peak resident set size where the
// platform exposes it.
func peakRSSMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, l := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(l, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, true
		}
	}
	return 0, false
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
