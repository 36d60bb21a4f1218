// Command servesmoke load-tests the serve daemon in-process: it analyzes
// one synthetic network (net5 by default, the 881-router backbone), mounts
// the full rlensd middleware stack on a local listener, fires N concurrent
// queries at the /v1 endpoints, and prints one machine-readable line per
// endpoint with query counts, shed counts, and p50/p99 latency:
//
//	servesmoke: endpoint=summary queries=200 ok=197 shed=3 p50_ns=81250 p99_ns=1220417
//
// Two servers are hammered from the same analyzed design: one with the
// per-generation query cache disabled (rows endpoint=<name>, the
// compute-every-request latency) and one with it enabled (rows
// endpoint=<name>:warm, the cache-replay latency). An
// endpoint=reload row times POST /v1/nets/<net>/reload round trips — incremental
// thanks to the shared parse cache, and inclusive of the reach
// precompute that now happens at swap time instead of on the first
// query. The observability plane is measured too: endpoint=events
// hammers the /v1/nets/<net>/events cursor page (the ring holds the swap events
// the reloads just published) and endpoint=watch times
// connect-to-first-SSE-byte of /v1/nets/<net>/watch across sequential
// connections.
//
// A snapshot phase writes the corpus to disk and measures what analyzed-
// design snapshots buy: endpoint=coldstart is the full-analysis cold
// start that seeds the snapshot, endpoint=coldstart:snapshot restores
// fresh servers from it, and endpoint=reload:snapshot times no-change
// POST /v1/nets/<net>/reload round trips against the snapshotted server (the
// unchanged short-circuit keeps the warm generation). benchcmp pairs
// these rows into full-vs-snapshot speedups.
//
// A fleet phase follows: one server hosting three networks (two small
// corpus networks plus a replica of the first, so the shared parse
// cache provably crosses network boundaries) under mixed concurrent
// load against the canonical /v1/nets/<net>/ endpoints, one row per
// network per endpoint:
//
//	servesmoke: net=net25 endpoint=summary queries=100 ok=100 shed=0 p50_ns=41000 p99_ns=310000
//
// An ingestion phase: a directory-backed net25 server
// with the admission gate armed takes admitted tar.gz pushes
// (endpoint=ingest:push, the full stream-extract-analyze-admit-promote-
// swap round trip), catastrophic pushes (endpoint=ingest:rejected, the
// cost of a 422 guardrail verdict), and one generation rollback
// (endpoint=ingest:rollback), cross-checking the routinglens_ingest_*
// counters against what actually happened.
//
// A compression phase closes the run: a provider-tier network
// (netgen.KindProvider, 600 routers) is served twice — plain and with
// the design quotient on — recording paired compress:swap,
// compress:reach, and compress:whatif rows (":quotient" suffix on the
// compressed leg) and cross-checking that both servers return
// byte-identical /v1/nets/<net>/reach and /v1/nets/<net>/whatif bodies.
//
// tools/benchcmp parses these lines into the "serve" section of its JSON
// report, so `make servesmoke` lands a BENCH_serve.json next to
// BENCH_parallel.json with the same envelope (generated_by, goos, goarch,
// gomaxprocs). Shedding is expected under deliberate oversubscription —
// the point of the run is proving the limiter sheds instead of queueing
// while every admitted query completes.
//
// Usage:
//
//	go run ./tools/servesmoke | go run ./tools/benchcmp -out BENCH_serve.json -generated-by "make servesmoke"
package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"routinglens/internal/compress"
	"routinglens/internal/core"
	"routinglens/internal/ingest"
	"routinglens/internal/netgen"
	"routinglens/internal/parsecache"
	"routinglens/internal/serve"
	"routinglens/internal/telemetry"
)

func main() {
	netName := flag.String("net", "net5", "synthetic network to serve")
	seed := flag.Int64("seed", 2004, "corpus generation seed")
	queries := flag.Int("queries", 200, "queries per endpoint")
	concurrency := flag.Int("concurrency", 32, "concurrent clients")
	maxInflight := flag.Int("max-inflight", 16, "server concurrency bound (kept below client concurrency so shedding is exercised)")
	flag.Parse()

	corpus := netgen.GenerateCorpus(*seed)
	g := corpus.ByName(*netName)
	if g == nil {
		fmt.Fprintf(os.Stderr, "servesmoke: no network named %q\n", *netName)
		os.Exit(2)
	}

	// The two servers share one analyzer, so the parse cache primed by the
	// first load makes every later load incremental.
	an := core.NewAnalyzer(core.WithCache(parsecache.New(parsecache.DefaultMaxEntries, 0)))
	load := func(ctx context.Context) (*core.Result, error) {
		return an.AnalyzeConfigsResult(ctx, g.Name, g.Configs)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := telemetry.NewRegistry()
	s, err := serve.New(serve.Config{
		Nets:        []serve.NetSource{{Name: g.Name, Load: load}},
		MaxInFlight: *maxInflight,
		Registry:    reg,
		Logger:      quiet,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		os.Exit(1)
	}
	coldReg := telemetry.NewRegistry()
	sCold, err := serve.New(serve.Config{
		Nets:           []serve.NetSource{{Name: g.Name, Load: load}},
		MaxInFlight:    *maxInflight,
		Registry:       coldReg,
		Logger:         quiet,
		QueryCacheSize: -1, // compute every request: the pre-cache baseline
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		os.Exit(1)
	}
	t0 := time.Now()
	if err := s.Net(g.Name).Reload(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: analyzing %s: %v\n", g.Name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "servesmoke: %s analyzed in %v (%d routers)\n",
		g.Name, time.Since(t0).Round(time.Millisecond), g.Routers)
	if err := sCold.Net(g.Name).Reload(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: analyzing %s (cold server): %v\n", g.Name, err)
		os.Exit(1)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tsCold := httptest.NewServer(sCold.Handler())
	defer tsCold.Close()

	// One warm-up query per endpoint computes the remaining lazy
	// per-generation analysis (survivability) outside the timed run —
	// reachability is already precomputed at load time — and, on the
	// cached server, populates the query cache so its rows measure
	// replay.
	endpoints := []struct{ name, path string }{
		{"summary", "/v1/nets/" + g.Name + "/summary"},
		{"pathway", "/v1/nets/" + g.Name + "/pathway?router=" + firstRouter(g)},
		{"reach", "/v1/nets/" + g.Name + "/reach"},
		{"whatif", "/v1/nets/" + g.Name + "/whatif"},
	}
	warmUp := func(ts *httptest.Server) {
		client := ts.Client()
		for _, ep := range endpoints {
			resp, err := client.Get(ts.URL + ep.path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "servesmoke: warm-up %s: %v\n", ep.name, err)
				os.Exit(1)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "servesmoke: warm-up %s: status %d\n", ep.name, resp.StatusCode)
				os.Exit(1)
			}
		}
	}
	warmUp(tsCold)
	warmUp(ts)

	exitCode := 0
	run := func(ts *httptest.Server, suffix string) {
		client := ts.Client()
		for _, ep := range endpoints {
			lat, ok, shed, errs := hammer(client, ts.URL+ep.path, *queries, *concurrency)
			if errs > 0 || ok == 0 {
				fmt.Fprintf(os.Stderr, "servesmoke: endpoint %s%s: %d ok, %d unexpected responses\n", ep.name, suffix, ok, errs)
				exitCode = 1
			}
			fmt.Printf("servesmoke: endpoint=%s%s queries=%d ok=%d shed=%d p50_ns=%d p99_ns=%d\n",
				ep.name, suffix, *queries, ok, shed, percentile(lat, 50), percentile(lat, 99))
		}
	}
	run(tsCold, "")  // query cache disabled: every request computes
	run(ts, ":warm") // query cache enabled: requests replay

	// Time full reload round trips on the cached server: incremental
	// re-analysis (parse cache), reach precompute, generation swap, and
	// query-cache purge, all inside one POST.
	{
		const reloads = 5
		client := ts.Client()
		var lat []time.Duration
		ok, errs := 0, 0
		for i := 0; i < reloads; i++ {
			start := time.Now()
			resp, err := client.Post(ts.URL+"/v1/nets/"+g.Name+"/reload", "", nil)
			d := time.Since(start)
			if err != nil {
				errs++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok++
				lat = append(lat, d)
			} else {
				errs++
			}
		}
		if errs > 0 || ok == 0 {
			fmt.Fprintf(os.Stderr, "servesmoke: endpoint reload: %d ok, %d unexpected responses\n", ok, errs)
			exitCode = 1
		}
		fmt.Printf("servesmoke: endpoint=reload queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
			reloads, ok, percentile(lat, 50), percentile(lat, 99))
	}

	// Observability plane, after the reloads so the event ring is
	// populated with the generation swaps they published.
	{
		client := ts.Client()
		lat, ok, shed, errs := hammer(client, ts.URL+"/v1/nets/"+g.Name+"/events", *queries, *concurrency)
		if errs > 0 || ok == 0 {
			fmt.Fprintf(os.Stderr, "servesmoke: endpoint events: %d ok, %d unexpected responses\n", ok, errs)
			exitCode = 1
		}
		fmt.Printf("servesmoke: endpoint=events queries=%d ok=%d shed=%d p50_ns=%d p99_ns=%d\n",
			*queries, ok, shed, percentile(lat, 50), percentile(lat, 99))

		const conns = 50
		var wlat []time.Duration
		wok, werrs := 0, 0
		for i := 0; i < conns; i++ {
			d, err := watchFirstByte(client, ts.URL+"/v1/nets/"+g.Name+"/watch")
			if err != nil {
				werrs++
				continue
			}
			wok++
			wlat = append(wlat, d)
		}
		if werrs > 0 || wok == 0 {
			fmt.Fprintf(os.Stderr, "servesmoke: endpoint watch: %d ok, %d failed connections\n", wok, werrs)
			exitCode = 1
		}
		fmt.Printf("servesmoke: endpoint=watch queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
			conns, wok, percentile(wlat, 50), percentile(wlat, 99))
	}

	fmt.Fprintf(os.Stderr, "servesmoke: server counted %d shed, %d timeouts, %d panics, %d querycache hits\n",
		reg.Counter(serve.MetricShed, telemetry.L("net", g.Name)).Value(),
		reg.Counter(serve.MetricTimeouts).Value(),
		reg.Counter(serve.MetricPanicsRecovered).Value(),
		querycacheHits(reg))

	if code := snapshotPhase(g, quiet); code != 0 {
		exitCode = code
	}
	if code := fleetPhase(corpus, quiet, *queries, *concurrency, *maxInflight); code != 0 {
		exitCode = code
	}
	if code := ingestPhase(corpus, quiet); code != 0 {
		exitCode = code
	}
	if code := compressPhase(*seed, quiet); code != 0 {
		exitCode = code
	}
	os.Exit(exitCode)
}

// compressPhase serves a provider-tier network (netgen.KindProvider)
// twice from one primed parse cache — once plain, once with Compress on —
// and records paired compress:* rows that benchcmp turns into the
// compress speedup family: endpoint=compress:swap{,:quotient} is the
// generation swap round trip (analysis, quotient build on the :quotient
// leg, reach precompute), endpoint=compress:reach{,:quotient} serves the
// precomputed reachability analysis, and
// endpoint=compress:whatif{,:quotient} is the cold survivability compute
// the first what-if query triggers. The phase fails if the two servers
// disagree on a single byte of /v1/nets/<net>/reach or /v1/nets/<net>/whatif output, or if the
// compressed server's quotient gauges say it did not actually reduce the
// graph.
func compressPhase(seed int64, quiet *slog.Logger) int {
	const routers = 600
	g := netgen.GenerateProvider(seed, routers)
	an := core.NewAnalyzer(core.WithCache(parsecache.New(parsecache.DefaultMaxEntries, 0)))
	load := func(ctx context.Context) (*core.Result, error) {
		return an.AnalyzeConfigsResult(ctx, g.Name, g.Configs)
	}
	// Prime the parse cache so both legs time a warm analysis and the
	// swap comparison isolates what compression changes.
	if _, err := load(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: compress phase: priming analysis: %v\n", err)
		return 1
	}
	code := 0
	type legResult struct {
		reach, whatif []byte
		reg           *telemetry.Registry
	}
	legs := []struct {
		suffix   string
		compress bool
	}{{"", false}, {":quotient", true}}
	results := make([]legResult, len(legs))
	for i, l := range legs {
		reg := telemetry.NewRegistry()
		s, err := serve.New(serve.Config{
			Nets:           []serve.NetSource{{Name: g.Name, Load: load}},
			Compress:       l.compress,
			Registry:       reg,
			Logger:         quiet,
			QueryCacheSize: -1, // compute every request: latency must come from analysis, not replay
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "servesmoke: compress phase: %v\n", err)
			return 1
		}
		start := time.Now()
		if err := s.Net(g.Name).Reload(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "servesmoke: compress phase: loading %s: %v\n", g.Name, err)
			return 1
		}
		swap := time.Since(start)
		fmt.Printf("servesmoke: endpoint=compress:swap%s queries=1 ok=1 shed=0 p50_ns=%d p99_ns=%d\n",
			l.suffix, swap.Nanoseconds(), swap.Nanoseconds())

		ts := httptest.NewServer(s.Handler())
		client := ts.Client()
		get := func(path string) ([]byte, time.Duration) {
			start := time.Now()
			resp, err := client.Get(ts.URL + path)
			d := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "servesmoke: compress phase: GET %s: %v\n", path, err)
				code = 1
				return nil, d
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "servesmoke: compress phase: GET %s: status %d\n", path, resp.StatusCode)
				code = 1
				return nil, d
			}
			return body, d
		}
		var d time.Duration
		results[i].reach, d = get("/v1/nets/" + g.Name + "/reach")
		fmt.Printf("servesmoke: endpoint=compress:reach%s queries=1 ok=1 shed=0 p50_ns=%d p99_ns=%d\n",
			l.suffix, d.Nanoseconds(), d.Nanoseconds())
		results[i].whatif, d = get("/v1/nets/" + g.Name + "/whatif")
		fmt.Printf("servesmoke: endpoint=compress:whatif%s queries=1 ok=1 shed=0 p50_ns=%d p99_ns=%d\n",
			l.suffix, d.Nanoseconds(), d.Nanoseconds())
		results[i].reg = reg
		ts.Close()
	}

	// The whole point of the quotient is exactness: a compressed server
	// that answers differently from the full one is broken, not fast.
	if !bytes.Equal(results[0].reach, results[1].reach) {
		fmt.Fprintln(os.Stderr, "servesmoke: compress phase: /v1/nets/<net>/reach answers differ between full and quotient servers")
		code = 1
	}
	if !bytes.Equal(results[0].whatif, results[1].whatif) {
		fmt.Fprintln(os.Stderr, "servesmoke: compress phase: /v1/nets/<net>/whatif answers differ between full and quotient servers")
		code = 1
	}
	lnet := telemetry.L("net", g.Name)
	nr := results[1].reg.Gauge(compress.MetricRouters, lnet).Value()
	nc := results[1].reg.Gauge(compress.MetricClasses, lnet).Value()
	if nc <= 0 || nc >= nr {
		fmt.Fprintf(os.Stderr, "servesmoke: compress phase: quotient gauges report %v routers -> %v classes (no reduction)\n", nr, nc)
		code = 1
	}
	fmt.Fprintf(os.Stderr, "servesmoke: compress phase: %s quotiented %v routers -> %v classes (%.2fx)\n",
		g.Name, nr, nc, results[1].reg.Gauge(compress.MetricRatio, lnet).Value())
	return code
}

// tarGzOf packs a name->content config set into a tar.gz push body.
func tarGzOf(configs map[string]string) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body := configs[name]
		tw.WriteHeader(&tar.Header{Name: name, Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(body))})
		io.WriteString(tw, body)
	}
	tw.Close()
	gz.Close()
	return buf.Bytes()
}

// ingestPhase times the continuous-ingestion surface against a
// directory-backed net25 server with the admission gate armed the way
// cmd/rlensd arms it: endpoint=ingest:push is the full admitted-push
// round trip (stream + extract + analyze + admit + promote + swap),
// endpoint=ingest:rejected is the cost of refusing a catastrophic push
// (analysis plus the guardrail verdict, no swap), and
// endpoint=ingest:rollback is the generation-pointer flip. The phase
// fails if an admitted push does not swap, a catastrophic one is not
// rejected 422, or the ingest metrics do not count what happened.
func ingestPhase(corpus *netgen.Corpus, quiet *slog.Logger) int {
	g := corpus.ByName("net25")
	if g == nil {
		fmt.Fprintln(os.Stderr, "servesmoke: ingest network net25 missing from corpus")
		return 1
	}
	root, err := os.MkdirTemp("", "servesmoke-ingest-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, g.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %v\n", err)
		return 1
	}
	for name, text := range g.Configs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %v\n", err)
			return 1
		}
	}
	reg := telemetry.NewRegistry()
	s, err := serve.New(serve.Config{
		Dir:       dir,
		IngestDir: filepath.Join(root, "ingest"),
		Admission: &serve.AdmissionPolicy{MaxRouterLossPct: 50, MinRouters: 1, MaxErrorDiags: -1, MaxCompartmentDelta: -1},
		Registry:  reg,
		Logger:    quiet,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %v\n", err)
		return 1
	}
	if err := s.Net(g.Name).Reload(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: initial load: %v\n", err)
		return 1
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	code := 0

	post := func(body []byte) (int, time.Duration) {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/nets/"+g.Name+"/configs", "application/gzip", bytes.NewReader(body))
		d := time.Since(start)
		if err != nil {
			return 0, d
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, d
	}

	// Admitted pushes: the whole corpus re-pushed, swapping every time
	// (no snapshot dir, so no unchanged short-circuit).
	good := tarGzOf(g.Configs)
	const pushes = 5
	var plat []time.Duration
	ok := 0
	for i := 0; i < pushes; i++ {
		status, d := post(good)
		if status == http.StatusOK {
			ok++
			plat = append(plat, d)
		}
	}
	if ok < pushes {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %d/%d admitted pushes ok\n", ok, pushes)
		code = 1
	}
	fmt.Printf("servesmoke: endpoint=ingest:push queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
		pushes, ok, percentile(plat, 50), percentile(plat, 99))

	// Catastrophic pushes: a handful of survivors, rejected 422 by the
	// loss guardrail while the last-good generation keeps serving.
	few := make(map[string]string)
	for _, name := range []string{firstRouter(g)} {
		few[name] = g.Configs[name]
	}
	bad := tarGzOf(few)
	var rlat []time.Duration
	rejected := 0
	for i := 0; i < pushes; i++ {
		status, d := post(bad)
		if status == http.StatusUnprocessableEntity {
			rejected++
			rlat = append(rlat, d)
		}
	}
	if rejected < pushes {
		fmt.Fprintf(os.Stderr, "servesmoke: ingest phase: %d/%d catastrophic pushes rejected\n", rejected, pushes)
		code = 1
	}
	fmt.Printf("servesmoke: endpoint=ingest:rejected queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
		pushes, rejected, percentile(rlat, 50), percentile(rlat, 99))

	// Rollback: the generation-pointer flip (no reload inside).
	start := time.Now()
	resp, err := client.Post(ts.URL+"/v1/nets/"+g.Name+"/configs/rollback", "", nil)
	rd := time.Since(start)
	rok := 0
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			rok = 1
		}
	}
	if rok == 0 {
		fmt.Fprintln(os.Stderr, "servesmoke: ingest phase: rollback failed")
		code = 1
	}
	fmt.Printf("servesmoke: endpoint=ingest:rollback queries=1 ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
		rok, int64(rd), int64(rd))

	lnet := telemetry.L("net", g.Name)
	okPushes := reg.Counter(ingest.MetricPushes, lnet, telemetry.L("result", "ok")).Value()
	rejPushes := reg.Counter(ingest.MetricPushes, lnet, telemetry.L("result", "rejected")).Value()
	rollbacks := reg.Counter(ingest.MetricRollbacks, lnet).Value()
	fmt.Fprintf(os.Stderr, "servesmoke: ingest metrics: %d pushes ok, %d rejected, %d rollbacks\n",
		okPushes, rejPushes, rollbacks)
	if okPushes != pushes || rejPushes != pushes || rollbacks != 1 {
		fmt.Fprintln(os.Stderr, "servesmoke: ingest phase: routinglens_ingest_* counters disagree with the run")
		code = 1
	}
	return code
}

// snapshotPhase measures what analyzed-design snapshots buy: the corpus
// is written to disk (snapshots address directories, not in-memory
// configs), one server pays the full analysis and leaves a snapshot
// behind (endpoint=coldstart), fresh servers then cold-start from it
// (endpoint=coldstart:snapshot), and no-change reloads against the
// snapshotted server time the unchanged short-circuit
// (endpoint=reload:snapshot). benchcmp pairs the rows into full-vs-
// snapshot speedups.
func snapshotPhase(g *netgen.Generated, quiet *slog.Logger) int {
	root, err := os.MkdirTemp("", "servesmoke-snap-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, g.Name) // base name becomes the network (and snapshot) name
	snapDir := filepath.Join(root, "snapshots")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %v\n", err)
		return 1
	}
	for name, text := range g.Configs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %v\n", err)
			return 1
		}
	}

	mkServer := func() (*serve.Server, *telemetry.Registry, error) {
		reg := telemetry.NewRegistry()
		s, err := serve.New(serve.Config{
			Dir:         dir,
			SnapshotDir: snapDir,
			Registry:    reg,
			Logger:      quiet,
		})
		return s, reg, err
	}

	// Cold start without a snapshot: the full analysis (plus the snapshot
	// write it leaves behind — milliseconds against seconds of analysis).
	seed, _, err := mkServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %v\n", err)
		return 1
	}
	t0 := time.Now()
	if err := seed.Net(g.Name).Reload(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: full cold start: %v\n", err)
		return 1
	}
	full := time.Since(t0)
	fmt.Printf("servesmoke: endpoint=coldstart queries=1 ok=1 shed=0 p50_ns=%d p99_ns=%d\n",
		int64(full), int64(full))

	// Cold start with the snapshot present: a fresh server (fresh
	// analyzer, empty parse cache) restores and publishes from disk. One
	// sample on purpose: each snapshot cold start leaves a background
	// reach warm-up running, and a second timed start would contend with
	// it for cores instead of measuring a clean restore.
	last, reg, err := mkServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %v\n", err)
		return 1
	}
	t0 = time.Now()
	if err := last.Net(g.Name).Reload(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: snapshot cold start: %v\n", err)
		return 1
	}
	clat := []time.Duration{time.Since(t0)}
	if reg.Counter(core.MetricSnapshotLoads, telemetry.L("net", g.Name)).Value() == 0 {
		fmt.Fprintln(os.Stderr, "servesmoke: snapshot phase: cold start did not load the snapshot")
		return 1
	}
	fmt.Printf("servesmoke: endpoint=coldstart:snapshot queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
		len(clat), len(clat), percentile(clat, 50), percentile(clat, 99))

	// No-change reloads: the signature set matches the serving generation,
	// so the server re-hashes the corpus, recognizes it, and keeps the
	// warm generation — no re-analysis, no reach precompute, no purge.
	ts := httptest.NewServer(last.Handler())
	defer ts.Close()
	const reloads = 5
	client := ts.Client()
	// Drain the cold start's background reach warm-up first, so the timed
	// reloads measure the short-circuit, not scheduler contention with
	// the warm-up: poll /v1/nets/<net>/reach until it answers from the resident
	// precomputed view (fast 200) instead of computing.
	for i := 0; i < 30; i++ {
		start := time.Now()
		resp, err := client.Get(ts.URL + "/v1/nets/" + g.Name + "/reach")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && time.Since(start) < 500*time.Millisecond {
			break
		}
	}
	var rlat []time.Duration
	ok := 0
	for i := 0; i < reloads; i++ {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/nets/"+g.Name+"/reload", "", nil)
		d := time.Since(start)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ok++
			rlat = append(rlat, d)
		}
	}
	if ok < reloads {
		fmt.Fprintf(os.Stderr, "servesmoke: snapshot phase: %d/%d no-change reloads ok\n", ok, reloads)
		return 1
	}
	fmt.Printf("servesmoke: endpoint=reload:snapshot queries=%d ok=%d shed=0 p50_ns=%d p99_ns=%d\n",
		reloads, ok, percentile(rlat, 50), percentile(rlat, 99))
	fmt.Fprintf(os.Stderr, "servesmoke: snapshot cold start %v vs full %v (%.0fx); no-change reload p50 %v\n",
		percentileDur(clat, 50), full,
		float64(full)/float64(percentile(clat, 50)),
		percentileDur(rlat, 50))
	return 0
}

// percentileDur is percentile as a time.Duration, for human-facing logs.
func percentileDur(lat []time.Duration, p int) time.Duration {
	return time.Duration(percentile(lat, p))
}

// fleetPhase load-tests the multi-network registry: one server hosting
// net25, net27, and net25-replica (the same configurations as net25
// under a second name — a staging copy, in operational terms), all
// analyzed through ONE shared parse cache with per-network origins. The
// three networks are hammered concurrently against their canonical
// /v1/nets/<net>/ endpoints — the mixed load the fleet API exists for —
// and the phase fails if the shared cache records no cross-network
// hits, because the replica's load must have replayed net25's parses.
func fleetPhase(corpus *netgen.Corpus, quiet *slog.Logger, queries, concurrency, maxInflight int) int {
	g25, g27 := corpus.ByName("net25"), corpus.ByName("net27")
	if g25 == nil || g27 == nil {
		fmt.Fprintln(os.Stderr, "servesmoke: fleet networks net25/net27 missing from corpus")
		return 1
	}
	pc := parsecache.New(parsecache.DefaultMaxEntries, 0)
	mk := func(name string, g *netgen.Generated) serve.NetSource {
		an := core.NewAnalyzer(core.WithCache(pc), core.WithCacheOrigin(name))
		return serve.NetSource{Name: name, Load: func(ctx context.Context) (*core.Result, error) {
			return an.AnalyzeConfigsResult(ctx, g.Name, g.Configs)
		}}
	}
	reg := telemetry.NewRegistry()
	fleet, err := serve.New(serve.Config{
		Nets:        []serve.NetSource{mk("net25", g25), mk("net27", g27), mk("net25-replica", g25)},
		ParseCache:  pc,
		MaxInFlight: maxInflight,
		Registry:    reg,
		Logger:      quiet,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: fleet: %v\n", err)
		return 1
	}
	t0 := time.Now()
	if err := fleet.ReloadAll(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: fleet load: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "servesmoke: fleet of %d networks analyzed in %v\n",
		len(fleet.Nets()), time.Since(t0).Round(time.Millisecond))
	ts := httptest.NewServer(fleet.Handler())
	defer ts.Close()

	type fleetNet struct {
		name string
		g    *netgen.Generated
	}
	nets := []fleetNet{{"net25", g25}, {"net27", g27}, {"net25-replica", g25}}
	type row struct {
		net, ep           string
		queries, ok, shed int
		p50, p99          int64
	}
	code := 0
	var mu sync.Mutex
	var rows []row
	var wg sync.WaitGroup
	for _, fn := range nets {
		wg.Add(1)
		go func(fn fleetNet) {
			defer wg.Done()
			client := ts.Client()
			base := ts.URL + "/v1/nets/" + fn.name
			for _, ep := range []struct{ name, path string }{
				{"summary", base + "/summary"},
				{"pathway", base + "/pathway?router=" + firstRouter(fn.g)},
				{"reach", base + "/reach"},
				{"whatif", base + "/whatif"},
			} {
				lat, ok, shed, errs := hammer(client, ep.path, queries, concurrency)
				mu.Lock()
				if errs > 0 || ok == 0 {
					fmt.Fprintf(os.Stderr, "servesmoke: net %s endpoint %s: %d ok, %d unexpected responses\n",
						fn.name, ep.name, ok, errs)
					code = 1
				}
				rows = append(rows, row{fn.name, ep.name, queries, ok, shed,
					percentile(lat, 50), percentile(lat, 99)})
				mu.Unlock()
			}
		}(fn)
	}
	wg.Wait()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].net != rows[j].net {
			return rows[i].net < rows[j].net
		}
		return rows[i].ep < rows[j].ep
	})
	for _, r := range rows {
		fmt.Printf("servesmoke: net=%s endpoint=%s queries=%d ok=%d shed=%d p50_ns=%d p99_ns=%d\n",
			r.net, r.ep, r.queries, r.ok, r.shed, r.p50, r.p99)
	}
	st := pc.Stats()
	fmt.Fprintf(os.Stderr, "servesmoke: fleet parse cache: %d entries, %d hits, %d cross-network hits\n",
		st.Entries, st.Hits, st.CrossHits)
	if st.CrossHits == 0 {
		fmt.Fprintln(os.Stderr, "servesmoke: fleet: expected cross-network parse-cache hits > 0 (replica shares every file)")
		code = 1
	}
	return code
}

// watchFirstByte opens one /v1/nets/<net>/watch SSE connection and measures
// connect to first streamed byte — the latency a drift watcher pays
// before it is live — then tears the connection down.
func watchFirstByte(client *http.Client, url string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// querycacheHits sums the per-endpoint hit counters.
func querycacheHits(reg *telemetry.Registry) int64 {
	var total int64
	for _, ep := range []string{"summary", "pathway", "reach", "whatif"} {
		total += reg.Counter(serve.MetricQueryCacheHits, telemetry.L("endpoint", ep)).Value()
	}
	return total
}

// hammer fires n GETs at url from c concurrent clients and returns the
// latencies of the 200s, the 200/429 counts, and anything else as errs.
func hammer(client *http.Client, url string, n, c int) (lat []time.Duration, ok, shed, errs int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan struct{})
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				start := time.Now()
				resp, err := client.Get(url)
				d := time.Since(start)
				if err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
					lat = append(lat, d)
				case http.StatusTooManyRequests:
					shed++
				default:
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	return lat, ok, shed, errs
}

// percentile returns the p-th percentile latency in nanoseconds (0 when
// no samples landed).
func percentile(lat []time.Duration, p int) int64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := (len(lat)-1)*p/100 + 1
	if idx > len(lat) {
		idx = len(lat)
	}
	return int64(lat[idx-1])
}

// firstRouter picks a deterministic pathway target: the lexically first
// hostname in the network.
func firstRouter(g *netgen.Generated) string {
	names := make([]string, 0, len(g.Configs))
	for n := range g.Configs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names[0]
}
