GO ?= go

.PHONY: all build test vet fmt-check check bench bench-hot bench-serve bench-gencorpus bench-pgo bench-hwsim race fuzz chaos cluster-chaos gencorpus-check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the data-race detector over the concurrent packages (parallel
# cross-validation folds, the prediction scratch pool, the espserve batching
# worker pool, and concurrent artifact-cache readers/writers). This target
# is the one definition of the race gate: CI and scripts/check.sh call it.
race:
	$(GO) test -race ./internal/core ./internal/neural ./internal/interp ./internal/serve ./internal/faultinject ./internal/artifact ./internal/experiments ./internal/obs ./internal/gencorpus ./internal/cluster ./internal/pgo ./internal/hwsim

# gencorpus-check is the short generative soak CI runs on every push: the
# generator property suite (~200 programs across the five mixes, each
# parsed, compiled, and executed under guard budgets) with the race
# detector watching the parallel shard-analysis path.
gencorpus-check:
	$(GO) test -race -short ./internal/gencorpus

# chaos runs the fault-injection suite under the race detector: seeded
# error/latency/panic faults at every registered site while concurrent
# clients verify bit-identical or correctly-degraded answers, drain
# completion, and goroutine hygiene.
chaos:
	$(GO) test -race -run Chaos ./internal/serve/... ./internal/faultinject/...

# cluster-chaos runs the replicated-serving chaos suite under the race
# detector: a seeded injector fires faults at the routing, peer-cache, and
# reload sites while a replica is killed and restarted mid-load, a peer
# partition opens and heals, and hot reloads land mid-burst — asserting
# every completed answer is bit-identical or exactly-degraded, loss stays
# bounded, and no goroutines leak.
cluster-chaos:
	$(GO) test -race -run 'ClusterChaos|Peer|Router|Ring' ./internal/cluster

# fuzz runs every fuzz target for a short budget, the same way CI does.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=20s ./internal/minic
	$(GO) test -run=NONE -fuzz=FuzzEncode -fuzztime=20s ./internal/features
	$(GO) test -run=NONE -fuzz=FuzzQuantDot -fuzztime=20s ./internal/neural
	$(GO) test -run=NONE -fuzz=FuzzGenCorpus -fuzztime=20s ./internal/gencorpus

check: build vet fmt-check test race chaos cluster-chaos

# bench runs the full benchmark suite (every table/figure plus the component
# micro-benchmarks). Expect several minutes.
bench:
	$(GO) test -bench . -benchmem -timeout 3600s .

# bench-hot runs just the hot-path benchmarks this repo optimizes: ESP
# cross-validation, sparse neural training, and profile collection (the
# micro-op interpreter on espresso and tomcatv).
bench-hot:
	$(GO) test -run XXX -benchmem -timeout 3600s \
		-bench 'BenchmarkTable4ESPCrossVal|BenchmarkNeuralTrainSparse|BenchmarkInterpProfile|BenchmarkInterpretTomcatv' .

# bench-json regenerates the machine-readable BENCH_<name>.json results
# that CI uploads as artifacts. BENCH_profile.json is committed as the
# baseline for the profiling hot path.
bench-json:
	$(GO) run ./cmd/espbench -bench all -benchout .

# bench-serve measures the serving request path — the committed float
# pipeline (encoding/json + float64 forward) against the quantized
# zero-allocation arena pipeline — and regenerates BENCH_serve.json,
# committed as the baseline the >=5x acceptance test guards.
bench-serve:
	$(GO) run ./cmd/espbench -serve -benchout .

# bench-gencorpus measures the generative-corpus pipeline (generation,
# cold/warm analysis through the artifact cache, streaming training) and
# regenerates BENCH_gencorpus.json, committed as the throughput baseline.
bench-gencorpus:
	$(GO) run ./cmd/espbench -gencorpus -benchout .

# bench-pgo runs the ESP-guided optimization study (simulated cycles of
# unguided vs ESP/heuristic/perfect-guided binaries over the whole corpus
# plus a generated slice) and regenerates BENCH_pgo.json, committed as the
# guided-optimization baseline.
bench-pgo:
	$(GO) run ./cmd/espbench -pgo -benchout .

# bench-hwsim runs the hardware-predictor co-simulation (dynamic
# 1-bit/2-bit/gshare/TAGE counters seeded from each static hint source,
# steady-state and cold-start) plus the branch-predictability taxonomy over
# the whole corpus and a generated slice, and regenerates BENCH_hwsim.json,
# committed as the co-simulation baseline.
bench-hwsim:
	$(GO) run ./cmd/espbench -hwsim -benchout .
