GO ?= go

.PHONY: all build test vet fmt-check fma-check check bench bench-hot bench-pgo bench-hwsim study-check race fuzz chaos cluster-chaos gencorpus-check perfbench-check

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

# fma-check fails on any fused multiply-add the compiler emits for arm64 in
# the packages whose float results are pinned bit for bit (core, features,
# interp, serve, stats, heuristics, pgo, dtree, obs, hwsim, mbr, neural,
# experiments) or in their test binaries; see scripts/fma-check.sh.
fma-check:
	GO=$(GO) sh scripts/fma-check.sh

# race runs the data-race detector over the concurrent packages (the par.For
# fan-out behind parallel analysis and cross-validation folds, the prediction
# scratch pool, the espserve batching worker pool, concurrent artifact-cache
# readers/writers, concurrent links against the shared runtime-library
# image, and the image's IR, graphs, sites and recorded pointer facts that
# every linked program reads). This target is the one definition of the race
# gate: CI and scripts/check.sh call it.
race:
	$(GO) test -race ./internal/core ./internal/neural ./internal/interp ./internal/serve ./internal/faultinject ./internal/artifact ./internal/experiments ./internal/obs ./internal/gencorpus ./internal/cluster ./internal/pgo ./internal/hwsim ./internal/corpus ./internal/par ./internal/features ./internal/codegen ./internal/cfg

# gencorpus-check is the short generative soak CI runs on every push: the
# generator property suite (~200 programs across the five mixes, each
# parsed, compiled, and executed under guard budgets) with the race
# detector watching the parallel analysis of ShardedCorpus.Examples and
# Load, including the warm-cache rerun that resumes a killed training run.
gencorpus-check:
	$(GO) test -race -short ./internal/gencorpus

# perfbench-check runs the benchmark harness's self-tests. perfbench is its
# own module (replace repro => ../), so `go test ./...` never reaches it.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

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
# FuzzAnalysis minimizes each new input with a full compile and analysis per
# candidate, which under the default 60 s minimize budget can use up its
# whole 20 s; a 5 s bound leaves it time to fuzz.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=20s ./internal/minic
	$(GO) test -run=NONE -fuzz=FuzzEncode -fuzztime=20s ./internal/features
	$(GO) test -run=NONE -fuzz=FuzzPredict -fuzztime=20s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzGenCorpus -fuzztime=20s ./internal/interp
	$(GO) test -run=NONE -fuzz=FuzzLink -fuzztime=20s ./internal/corpus
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=20s ./internal/artifact
	$(GO) test -run=NONE -fuzz=FuzzDecodePack -fuzztime=20s ./internal/artifact
	$(GO) test -run=NONE -fuzz=FuzzAnalysis -fuzztime=20s -fuzzminimizetime=5s ./internal/cfg

check: build vet fmt-check fma-check test race gencorpus-check chaos cluster-chaos perfbench-check

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

# study-check regenerates both study outputs and fails if either differs from
# the committed copy: both studies are deterministic, so a difference means
# the change moved a study result.
study-check: bench-pgo bench-hwsim
	git diff --exit-code -- BENCH_pgo.json BENCH_hwsim.json
