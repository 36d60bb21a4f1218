# Verification tiers. tier1 is the gate every PR must keep green — build,
# the full test suite, and the metriclint static check (metric naming
# rules plus exactly-once event-type registration); tier2
# adds vet, the race detector over every package — that includes the
# worker pools in core/experiments, the telemetry layer they share, and
# the serve daemon's swap/shed/drain paths (with extra iteration-count
# runs of the concurrent-queries-during-reload stresses, query cache on
# and off, plus the fleet isolation stress proving a failing or slow
# reload of one network never blocks another, and the ingest convergence
# stress racing the config watcher against pushes and manual reloads) —
# and a short fuzz pass over every ingestion fuzz target including the
# tar.gz push extractor
# (fuzzsmoke); benchsmoke runs the instrumented pipeline benches once so
# stage-instrumentation overhead stays visible in CI output; benchcmp
# runs the sequential-vs-parallel sweeps and records the speedups (with
# the host's GOMAXPROCS) in BENCH_parallel.json; cachebench runs the
# cold-vs-warm incremental-analysis benchmark and records the warm-path
# speedup in BENCH_cache.json; servesmoke load-tests the rlensd stack
# in-process against net5 and records per-endpoint p50/p99 latency
# (cached and uncached) plus reload round-trip latency in
# BENCH_serve.json, then runs a three-network fleet phase (mixed load
# against /v1/nets/<net>/..., shared parse cache) recording net= rows,
# a snapshot phase recording coldstart{,:snapshot} and reload:snapshot
# rows, an ingestion phase recording ingest:push / ingest:rejected /
# ingest:rollback rows against an admission-gated server, and a
# compression phase recording paired compress:* rows from a provider-tier
# network served plain and quotiented; snapbench
# reruns just that comparison (servesmoke writes the whole report either
# way); compressbench times cold reach and what-if on a 10k-router
# provider network against the behavior-preserving quotient and records
# the speedups (and the quotient build cost) in BENCH_compress.json,
# failing if the ratio drops below 10x or cold reach gains below 5x.

.PHONY: tier1 tier2 fuzzsmoke benchsmoke benchcmp cachebench servesmoke snapbench compressbench bench all

all: tier1 tier2 benchsmoke

tier1:
	go build ./... && go test ./...
	go run ./tools/metriclint

tier2: fuzzsmoke
	go vet ./... && go test -race ./...
	go test -race -count=3 -run '^TestConcurrentQueriesDuringReload$$' ./internal/serve
	go test -race -count=3 -run '^TestConcurrentQueriesAcrossSwapWithQueryCache$$' ./internal/serve
	go test -race -count=3 -run '^TestWatchDuringConcurrentReloads$$' ./internal/serve
	go test -race -count=3 -run '^TestFleetReloadIsolationStress$$' ./internal/serve
	go test -race -count=3 -run '^TestSnapshotLoadDuringReloadStress$$' ./internal/serve
	go test -race -count=3 -run '^TestIngestConvergenceStress$$' ./internal/serve
	go test -race -run '^TestParseCacheConcurrent$$' ./internal/parsecache
	go test -race -count=3 -run '^TestQuotientDeterministic$$' ./internal/compress

# fuzzsmoke gives each parser/anonymizer fuzz target ~10s of random
# input; a real campaign uses -fuzztime 30s+ per target. Saved crashers
# land in testdata/fuzz/ and replay under plain `go test` forever.
FUZZTIME ?= 10s
fuzzsmoke:
	go test -run '^$$' -fuzz '^FuzzParseAddr$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParseMask$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/ciscoparse
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/junosparse
	go test -run '^$$' -fuzz '^FuzzAnonymizeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/anonymize
	go test -run '^$$' -fuzz '^FuzzQueryParams$$' -fuzztime $(FUZZTIME) ./internal/serve
	go test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime $(FUZZTIME) ./internal/parsecache
	go test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzTarIngest$$' -fuzztime $(FUZZTIME) ./internal/ingest

benchsmoke:
	go test -run '^$$' -bench BenchmarkAnalyze -benchtime=1x .

benchcmp:
	go test -run '^$$' -bench 'BenchmarkAnalyzeNet5$$|Parallel$$/j' -benchtime=2x . \
		| go run ./tools/benchcmp -out BENCH_parallel.json

cachebench:
	go test -run '^$$' -bench 'BenchmarkAnalyzeDirNet5OneFileEdit' -benchtime=10x . \
		| go run ./tools/benchcmp -out BENCH_cache.json -generated-by "make cachebench"

servesmoke:
	go run ./tools/servesmoke \
		| go run ./tools/benchcmp -out BENCH_serve.json -generated-by "make servesmoke"

# snapbench: the cold-start-vs-snapshot comparison on the standard net5
# corpus. servesmoke always writes the complete report; this target
# exists so the snapshot numbers can be refreshed by name.
snapbench: servesmoke

compressbench:
	go run ./tools/compressbench \
		| go run ./tools/benchcmp -out BENCH_compress.json -generated-by "make compressbench"

# bench runs the repository benchmark (rlbench/, declared in
# BENCHMARK.json) once per workload for 25 s each, untraced. Each run
# prints its JSON result as the last line of stdout; SEED picks the
# edited routers and the keys readers draw (the corpus seed is pinned).
SEED ?= 1
bench:
	bash rlbench/run.sh --workload net5-reload --seed $(SEED) --seconds 25 --trace 0
	bash rlbench/run.sh --workload provider-reload --seed $(SEED) --seconds 25 --trace 0
