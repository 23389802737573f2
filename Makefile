# Developer entry points. `make check` is the pre-commit gate: static
# checks, the race suite over the concurrent packages, and a smoke run of
# the matrix benchmark.

GO ?= go

.PHONY: build test vet fmt race cpu-matrix loss-smoke bench-gate bench bench-delivery bench-replay bench-search fuzz-smoke obs-smoke alloc-gate shard-smoke mem-gate net-smoke scenario-smoke serve-smoke bench-serve profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail when it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The packages that run scheme code and matrix replays concurrently, plus
# the signature-index equivalence property (bit-sliced scan ≡ scalar linear
# scan under churn × loss × eviction), which shares frozen slot matrices
# across concurrent searches and so must hold under the detector.
race:
	$(GO) test -race ./internal/sim ./internal/experiments
	$(GO) test -race -run 'TestIndexedCacheEquivalenceUnderChurnAndLoss' ./internal/core

# Core-count invariance: the determinism, shard, obs, loss and
# inert-scenario suites at GOMAXPROCS 1, 2 and 4. Replay outputs must not
# depend on the host's core count; a 1-CPU runner alone cannot show that.
cpu-matrix:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Determin|Shard|Parallel|WorkerCount|Obs|Loss|Inert' \
		./internal/sim ./internal/scenario ./internal/experiments

# The fault-plane property suite under the race detector: a tiny matrix at
# 2% message loss must be identical for 1 and N workers, a zero-loss
# plane must be byte-identical to no plane at all, and every baseline
# summary at loss 0 and 0.02 must match its pinned digest.
loss-smoke:
	$(GO) test -race -run 'TestLoss|TestBaselineLossGolden' ./internal/experiments

# One iteration of the matrix benchmark as a compile-and-run smoke test
# (-run '^$' skips the unit tests in the root package).
bench-gate:
	$(GO) test -run '^$$' -bench BenchmarkRunMatrix -benchtime 1x .

# Full benchmark pass, plus the machine-readable perf record.
bench:
	$(GO) test -run '^$$' -bench BenchmarkRunMatrix -benchmem .
	$(GO) run ./cmd/experiments -benchjson BENCH_matrix.json

# Short fuzz pass over the wire decoders (trace codec, Bloom filters and
# patches). Go runs one fuzz target per invocation, hence three runs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecodeJSON$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFilterWire$$' -fuzztime $(FUZZTIME) ./internal/bloom
	$(GO) test -run '^$$' -fuzz '^FuzzPatchDecode$$' -fuzztime $(FUZZTIME) ./internal/bloom
	$(GO) test -run '^$$' -fuzz '^FuzzSlicedGeometry$$' -fuzztime $(FUZZTIME) ./internal/bloom

# Observability-plane determinism under the race detector: per-second
# series byte-identical across worker counts, and summaries unchanged by
# attaching a recorder.
obs-smoke:
	$(GO) test -race -run 'TestObsSeries' ./internal/experiments

# Delivery-plane micro-benchmarks: the flood/walk/apply hot loops over
# the CSR live views. One iteration each as a smoke test so a hot-loop
# regression (or a new allocation — they report -benchmem) fails fast.
bench-delivery:
	$(GO) test -run '^$$' -bench 'BenchmarkDeliverFlood|BenchmarkDeliverWalk|BenchmarkApplyAd' \
		-benchtime 100x -benchmem ./internal/core

# Baseline search-plane micro-benchmarks: flooding, random-walk and GSA
# searches over a warm scratch. A hundred iterations each as a smoke test
# so a hot-loop regression (or a new allocation) fails fast.
bench-search:
	$(GO) test -run '^$$' -bench 'BenchmarkFloodingSearch|BenchmarkRandomWalkSearch|BenchmarkGSASearch' \
		-benchtime 100x -benchmem ./internal/search

# Replay-plane micro-benchmarks: one full small-scale end-to-end replay
# plus the bit-sliced phase-1 cache scan. One/hundred iterations as a
# smoke test so a hot-loop regression (or a new allocation) fails fast.
bench-replay:
	$(GO) test -run '^$$' -bench 'BenchmarkReplaySmall' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkScanChains' -benchtime 100x -benchmem ./internal/core

# Zero-alloc gates: the obs-off hot path (promised in internal/obs), the
# warmed-up delivery hot loops (flood, walk, applyAd), the warmed-up
# replay scan paths (scanCache, serveAds), the warmed-up baseline searches
# (flooding, random-walk, GSA), and patch sizing on the publish path
# (exact even for unsorted caller-built lists).
alloc-gate:
	$(GO) test -run 'TestObsOffHotPathAllocs' -count=1 .
	$(GO) test -run 'TestDeliveryHotPathAllocs|TestScanHotPathAllocs' -count=1 ./internal/core
	$(GO) test -run 'TestBaselineSearchAllocs' -count=1 ./internal/search
	$(GO) test -run 'TestPatchWireSizeAllocs' -count=1 ./internal/bloom

# Sharded-replay equivalence under the race detector: the tiny matrix under
# churn × 2% loss must be byte-identical to the unsharded Workers=1 replay
# at every shard count (1, 2, 4 and a non-dividing 7), and the synthetic
# order-sensitive probe scheme must agree too. -race doubles as a soundness
# proof of the conflict plan: an undeclared cross-lane overlap is a data race.
shard-smoke:
	$(GO) test -race -run 'TestShardedReplayEquivalence|TestShardedDispatcherMatchesSequential' \
		./internal/experiments ./internal/sim

# Peak-heap gate: one sharded small-scale asap-rw replay must stay inside
# its live-heap budget (obs.HeapGauge high-water sampling, once per
# simulated second), so per-node memory creep fails fast.
mem-gate:
	$(GO) test -run 'TestSmallReplayPeakHeapBound' -count=1 ./internal/experiments

# Socket-layer equivalence under the race detector: a 3-daemon asapnode
# cluster (in-memory pipes, loopback TCP, and real OS processes) serves
# the tiny trace over length-prefixed frames and must produce the exact
# in-memory sequential summary, with every cross-replica verification
# passing. Frame/codec hostile-input tests ride along.
net-smoke:
	$(GO) test -race -count=1 ./internal/transport ./internal/cluster

# Adversarial-scenario gate under the race detector: every built-in
# scenario (partitions, flash crowds, churn storms, free riders, interest
# drift, rewiring) replays byte-identically across shard counts and must
# match its pinned golden summary + series hash. Regenerate goldens
# deliberately with `go test ./internal/scenario -run TestGoldenReplay -update`.
scenario-smoke:
	$(GO) test -race -count=1 ./internal/scenario

# Serving-plane gate under the race detector: the serve package's
# concurrent-oracle property (hammering readers vs live applies, every
# answer equal to the quiescent oracle at its epoch), admission control,
# endpoint and determinism tests — then a short open-loop load run built
# -race against an in-process warm node, which must serve every query
# (zero sheds at a rate the node is provisioned for) with p99 under a
# deliberately generous bound (detector overhead included).
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve ./internal/benchio
	$(GO) run -race ./cmd/asapload -rate 200 -n 400 -smoke -p99max 250ms -quiet

# Serving-plane benchmark: the zero-alloc hot-path gate (a warmed
# Node.Search must not allocate), then a sustained load run recording the
# serving block (qps, p50/p99, shed rate) into the bench JSON and gating
# the paper-motivated floor: ≥100k queries/min served from one warm node.
bench-serve:
	$(GO) test -run 'TestServeSearchAllocs' -count=1 ./internal/serve
	$(GO) run ./cmd/asapload -rate 4000 -n 12000 -minqpm 100000 -bench BENCH_matrix.json

# Profile a small-scale matrix run; inspect with `go tool pprof out/cpu.pb`.
profile:
	mkdir -p out
	$(GO) run ./cmd/experiments -scale small -figure 4 \
		-cpuprofile out/cpu.pb -memprofile out/mem.pb -mutexprofile out/mutex.pb
	@echo "profiles written to out/{cpu,mem,mutex}.pb"

check: vet fmt test race cpu-matrix loss-smoke bench-gate bench-delivery bench-replay bench-search obs-smoke alloc-gate shard-smoke mem-gate net-smoke scenario-smoke serve-smoke fuzz-smoke
