// Command rlbench is routinglens's end-to-end benchmark. It generates a
// network with internal/netgen, writes it out as a configuration
// directory, boots the real internal/serve stack in-process with
// cmd/rlensd's defaults, and drives it with two closed-loop clients —
// the CPU count of the host it was tuned on — so the latencies are
// server service time rather than harness queueing: a writer that
// edits and reloads over loopback HTTP, and a reader that calls the
// daemon's HTTP handler in-process. It checks a seeded sample of answers
// against the library computed directly, and prints every metric by
// name with its unit, ending with one JSON result line.
//
// Usage, from the repository root:
//
//	bash rlbench/run.sh --workload net5-reload --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs the same workload with spans around every call the
// benchmark makes and replays each layer's public functions after every
// load, reporting per-layer metrics instead of end-to-end ones and
// writing the spans to .bench_build/traces/<workload>.json.
// README.md beside this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/devmodel"
	"routinglens/internal/netgen"
	"routinglens/internal/pathway"
)

// spec is one workload.
type spec struct {
	name     string
	provider bool // the 10k-router provider tier instead of net5
	// readAfter runs the reader after the writer phase, over the last
	// generation, instead of beside it.
	readAfter bool
	// paramless lists the endpoints without parameters that the reader
	// queries beside the pathway and reach-pair keys.
	paramless []string
}

var specs = []spec{
	{
		// The reader leaves what-if to the writer, whose query after each
		// swap must be the generation's first.
		name:      "net5-reload",
		paramless: []string{"reach", "summary"},
	},
	{
		name: "provider-reload", provider: true, readAfter: true,
		paramless: []string{"reach", "whatif", "summary"},
	},
}

const (
	// setups is how many cold starts a run makes; setup_s is their median.
	setups = 5
	// corpusSeed pins the generated networks, and with them the key set
	// the reader queries, to the corpus every other tool in the
	// repository measures. --seed picks the edited routers and the keys
	// the reader draws; a network drawn per seed would make a run's cost
	// depend on what the seed drew.
	corpusSeed = 2004
	// providerRouters sizes the provider tier.
	providerRouters = 10000
	// writeShare is the part of provider-reload's window the writer gets;
	// the reader has the rest.
	writeShare = 0.5
)

func main() {
	workload := flag.String("workload", "", "workload to run: net5-reload or provider-reload")
	seed := flag.Int64("seed", 1, "seed for the edited routers and the query keys the reader draws")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "rlbench: need --workload (net5-reload|provider-reload), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &runner{sp: sp, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), hc: newClient()}
	if *traced == 1 {
		r.tr = newTracer()
	}
	res, err := r.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct {
		os.Exit(1)
	}
}

// runner holds one run's state.
type runner struct {
	sp     *spec
	seed   int64
	window time.Duration
	hc     *http.Client
	tr     *tracer // nil on untraced runs

	c    *corpus
	stk  *stack
	keys *keySet

	// lastSeq is the generation of the writer's last swap.
	lastSeq atomic.Int64
	// gate pauses the reader while a traced run replays layers, so the
	// replay's timings and allocation counts are its own.
	gate sync.RWMutex
	// paused is how long those replays held the writer and the reader.
	// It extends the window, so a traced run makes about as many
	// reloads and reads as an untraced one.
	paused time.Duration
	// parseBase holds the parse cache's hit and miss counts when set-up
	// ends, so parsecache.hit_ratio covers the reloads alone.
	parseBase [2]int64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string

	setupS, reloadRT []time.Duration
	// The first what-if of each set-up and each swapped-in generation.
	whatifSetup, whatifSwap []time.Duration
	reachAfterSwap          []time.Duration
	queries                 []time.Duration
	samples                 []sample
	readOrigin              time.Time
	readWindow              time.Duration
	liveHeapMiB             float64
	checks                  int

	// Traced-run figures.
	replay  *replayer
	counts  []replayCounts
	reloads []reloadTrace
	pairs   []overheadPair
	gapQ    [2][]time.Duration // reader latency: [0] plain, [1] traced
}

// reloadTrace pairs a traced reload round trip with its replay.
type reloadTrace struct {
	rt     time.Duration
	replay int // span ID
}

// overheadPair is one cache-miss handler query and the direct library call
// answering the same query.
type overheadPair struct{ handler, direct time.Duration }

// fail counts one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) run() (*result, error) {
	if _, err := os.Stat(filepath.Join("rlbench", "go.mod")); err != nil {
		return nil, errors.New("run from the repository root")
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", r.sp.name, os.Getpid()))
	defer os.RemoveAll(work)
	var g *netgen.Generated
	if r.sp.provider {
		g = netgen.GenerateProvider(corpusSeed, providerRouters)
	} else {
		g = netgen.GenerateCorpus(corpusSeed).ByName("net5")
	}
	c, err := writeCorpus(work, g)
	if err != nil {
		return nil, err
	}
	r.c = c
	r.keys = newKeySet(c, r.sp.paramless)
	logf("wrote %d configurations of %s: %d distinct query keys", len(c.routers), c.net, r.keys.size())

	defer func() {
		if r.stk != nil {
			r.stk.stop()
		}
	}()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	if r.tr != nil {
		r.replay = &replayer{c: c, tr: r.tr, devs: make(map[string]*devmodel.Device)}
		// Replaying the cold load fills the replayer's parsed devices
		// and serving design; only the reloads' replays are reported.
		if _, _, err := r.replay.replay(c.routers, false); err != nil {
			return nil, err
		}
	}
	r.measure()
	logf("window done: %d reloads, %d reader queries", len(r.reloadRT), len(r.queries))

	// Live heap with the serving generation warm, before anything the
	// checks allocate.
	runtime.GC()
	runtime.GC()
	r.liveHeapMiB = mib(heapAlloc())
	layer := r.layerCounters()
	samples := r.sampleAnswers()
	err = r.stk.stop()
	r.stk = nil
	if err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	if err := r.verify(samples); err != nil {
		return nil, err
	}
	logf("checked %d sampled answers against a direct analysis", r.checks)
	return r.result(layer), nil
}

// setUp makes the run's cold starts, keeping the last one serving, and
// times each generation's first what-if query.
func (r *runner) setUp() error {
	for i := 0; i < setups; i++ {
		if r.stk != nil {
			if err := r.stk.stop(); err != nil {
				return err
			}
			r.stk = nil
			runtime.GC()
		}
		stk, d, err := startStack(r.c.dir, r.c.net, r.hc)
		if err != nil {
			return err
		}
		r.stk = stk
		logf("set-up %d/%d: serving after %v", i+1, setups, d.Round(time.Millisecond))
		r.setupS = append(r.setupS, d)
		// The cold analysis leaves a heap of garbage; collect it so the
		// what-if timing does not depend on where the collector was.
		runtime.GC()
		seq, lat, err := r.firstWhatif(0)
		if err != nil {
			return err
		}
		r.whatifSetup = append(r.whatifSetup, lat)
		r.lastSeq.Store(seq)
	}
	r.parseBase = [2]int64{r.stk.counter(core.MetricCacheHits), r.stk.counter(core.MetricCacheMisses)}
	return nil
}

// firstWhatif times the generation's first what-if query; want is the
// generation it must answer from (0: whichever is serving).
func (r *runner) firstWhatif(want int64) (int64, time.Duration, error) {
	r.attempted.Add(1)
	id := r.tr.begin("http.whatif_first", 0)
	rep, err := do(r.hc, "GET", r.stk.base+"whatif")
	r.tr.end(id)
	if err != nil || rep.status != 200 || rep.hit {
		return 0, 0, fmt.Errorf("first what-if: status %d, cache hit %v: %v", rep.status, rep.hit, err)
	}
	seq, err := seqOf(rep.body)
	if err != nil || (want != 0 && seq != want) {
		return 0, 0, fmt.Errorf("first what-if answered seq %d, want %d: %v", seq, want, err)
	}
	return seq, rep.lat, nil
}

// measure runs the workload's closed loops for the window.
func (r *runner) measure() {
	start := time.Now()
	var stop atomic.Bool
	done := make(chan struct{})
	startReader := func() {
		r.readOrigin = time.Now()
		go func() {
			defer close(done)
			r.samples = r.reader(&stop)
		}()
	}
	if r.sp.readAfter {
		r.writer(start.Add(time.Duration(float64(r.window) * writeShare)))
		startReader()
		time.Sleep(time.Duration(float64(r.window) * (1 - writeShare)))
	} else {
		startReader()
		// The writer runs past the window's end, so the reader stops
		// with it and always runs beside a reload.
		r.writer(start.Add(r.window))
	}
	stop.Store(true)
	<-done
	r.readWindow = time.Since(r.readOrigin)
	if !r.sp.readAfter {
		r.readWindow -= r.paused
	}
	for _, x := range r.samples {
		r.queries = append(r.queries, x.lat)
	}
}

// writer edits, reloads and queries the new generation until the
// deadline, making at least one reload.
func (r *runner) writer(until time.Time) {
	ed := newEditor(r.c, r.seed)
	for i := 0; i == 0 || time.Now().Before(until.Add(r.paused)); i++ {
		r.attempted.Add(1)
		id := r.tr.begin("reload", 0)
		t0 := time.Now()
		host, err := ed.next()
		if err != nil {
			r.tr.end(id)
			r.fail("edit: %v", err)
			continue
		}
		rep, err := do(r.hc, "POST", r.stk.base+"reload")
		rt := time.Since(t0)
		r.tr.end(id)
		var body struct {
			Result string `json:"result"`
			Seq    int64  `json:"seq"`
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &body)
		}
		if err != nil || rep.status != 200 || body.Result != "swapped" || body.Seq <= r.lastSeq.Load() {
			r.fail("reload after editing %s: status %d result %q seq %d: %v", host, rep.status, body.Result, body.Seq, err)
			continue
		}
		r.lastSeq.Store(body.Seq)
		r.reloadRT = append(r.reloadRT, rt)
		// As at set-up: the old generation is garbage now. Collecting it
		// here starts every first what-if, and every next reload, from
		// the same heap state rather than wherever the collector was.
		runtime.GC()
		if _, lat, err := r.firstWhatif(body.Seq); err != nil {
			r.fail("%v", err)
		} else {
			r.whatifSwap = append(r.whatifSwap, lat)
		}
		if r.sp.provider {
			r.attempted.Add(1)
			rep, err := do(r.hc, "GET", r.stk.base+"reach")
			if seq, serr := seqOf(rep.body); err != nil || rep.status != 200 || serr != nil || seq != body.Seq {
				r.fail("reach after swap %d: status %d seq %d: %v %v", body.Seq, rep.status, seq, err, serr)
			} else {
				r.reachAfterSwap = append(r.reachAfterSwap, rep.lat)
			}
		}
		if r.tr != nil {
			r.gate.Lock()
			t0 := time.Now()
			rid, rc, err := r.replay.replay(r.reparsed(host), len(r.reloads) == 0)
			r.paused += time.Since(t0)
			r.gate.Unlock()
			if err != nil {
				r.fail("replay: %v", err)
				continue
			}
			r.counts = append(r.counts, rc)
			r.reloads = append(r.reloads, reloadTrace{rt: rt, replay: rid})
		}
	}
}

// reparsed lists as many files as the server's last reload parsed
// fresh: the edited one, then others. Where the parse cache held every
// other file that is just the edit; where it could not (a network with
// more files than the cache's entry bound), the replay parses as many
// files as the server did.
func (r *runner) reparsed(edited string) []string {
	n := int(r.stk.reg.Gauge(core.MetricFilesReparsed).Value())
	hosts := []string{edited}
	for _, h := range r.c.routers {
		if len(hosts) >= n {
			break
		}
		if h != edited {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbench: "+format+"\n", args...)
}

// reader runs one closed-loop client, calling the server's handler
// in-process, until stop is set. Each response must come from the
// generation the writer last swapped in — or from the one its in-flight
// reload is swapping in right then.
func (r *runner) reader(stop *atomic.Bool) []sample {
	rng := rand.New(rand.NewSource(r.seed * 7919))
	r.gate.RLock()
	paused0 := r.paused
	r.gate.RUnlock()
	var lats []sample
	for n := 0; !stop.Load(); n++ {
		q := r.keys.pick(rng)
		traced := r.tr != nil && n%2 == 1
		r.gate.RLock()
		before := r.lastSeq.Load()
		r.attempted.Add(1)
		sid := 0
		if traced {
			sid = r.tr.begin("http."+q.kind, 0)
		}
		rep := r.stk.local(q.path)
		r.tr.end(sid)
		after := r.lastSeq.Load()
		seq, serr := seqOf(rep.body)
		switch {
		case rep.status != 200 || serr != nil:
			r.fail("%s: status %d: %v", q.path, rep.status, serr)
		case seq < before || seq > after+1:
			r.fail("%s answered from generation %d while the writer's last swap was %d..%d", q.path, seq, before, after)
		default:
			// A traced run's replays hold the reader; their time is
			// left out of the completion time. Holding the gate makes
			// reading paused safe.
			lats = append(lats, sample{at: time.Since(r.readOrigin) - (r.paused - paused0), lat: rep.lat})
			if r.tr != nil {
				r.mu.Lock()
				r.gapQ[b2i(traced)] = append(r.gapQ[b2i(traced)], rep.lat)
				r.mu.Unlock()
				if traced {
					r.direct(q, seq, sid, rep)
				}
			}
		}
		r.gate.RUnlock()
	}
	return lats
}

// direct answers a traced query again by calling the layer directly on
// the serving generation, pairing the two latencies when the handler's
// answer was computed rather than replayed from the query cache.
func (r *runner) direct(q query, seq int64, parent int, rep reply) {
	st := r.stk.srv.Net(r.c.net).State()
	if st == nil || st.Seq != seq {
		return
	}
	var d time.Duration
	switch q.kind {
	case "pathway":
		id := r.tr.begin("pathway.compute", parent)
		t0 := time.Now()
		pathway.Compute(st.Res.Design.Instances, q.router)
		d = time.Since(t0)
		r.tr.end(id)
	case "reach-block":
		id := r.tr.begin("reach.block_query", parent)
		t0 := time.Now()
		st.Reach().BlockReachesBlock(q.src, q.dst)
		d = time.Since(t0)
		r.tr.end(id)
	default:
		return
	}
	if !rep.hit {
		r.mu.Lock()
		r.pairs = append(r.pairs, overheadPair{handler: rep.lat, direct: d})
		r.mu.Unlock()
	}
}

// sample is one reader query: when it completed, from the start of the
// reader window, and its latency.
type sample struct{ at, lat time.Duration }

// slice is the length of the parts of the reader window whose medians
// the query metrics take.
const slice = time.Second

// perSlice splits the reader samples into the whole one-second slices of
// the reader window, by completion time, and returns each slice's median
// latency in µs and its query rate.
func perSlice(ss []sample, window time.Duration) (p50s, rates []float64) {
	n := int(window / slice)
	by := make([][]float64, n)
	for _, x := range ss {
		if i := int(x.at / slice); i < n {
			by[i] = append(by[i], float64(x.lat.Nanoseconds())/1e3)
		}
	}
	for _, v := range by {
		if len(v) > 0 {
			p50s = append(p50s, median(v))
			rates = append(rates, float64(len(v))/slice.Seconds())
		}
	}
	return p50s, rates
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
