# Mirrors .github/workflows/ci.yml: `make build test bench lint` is what CI
# runs, so a green local make means a green pipeline.

GO ?= go

.PHONY: all build cross test race race-ownership bench bench-module allocs allocs-baseline kernels kernels-baseline kernels-purego fuzz-smoke overlap shard hier chaos sim sim-calibrate sim-crossval lint clean

all: lint build test

build:
	$(GO) build ./...

# The GOARCHes no other target compiles: a 32-bit int (untyped constants that
# overflow only there) and one without the AVX2 kernels (the !amd64 halves of
# the kernel build tags).
cross:
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on -timeout 40m ./...

# The buffer-ownership suite CI pins under -race (checkptr on): pooled
# send/receive hand-offs, the float wire's views, lent segments and shared
# buffers (internal/mpi), and the lending multi-colour tree against the
# copying one on multi-level trees (internal/allreduce).
race-ownership:
	$(GO) test -race -timeout 10m -run 'Pool|SendThenMutate|SendOwned|SendRecvSteadyState|IsendInline|RecvFloatsAdd|EncodeDecode|LentSegment|SharedBuffer|LendShare|FaultAndTCPWorldsCopy|TreeLendShare|MultiColorReusesCallState' ./internal/mpi ./internal/allreduce

# Every benchmark once — the CI smoke run. Full measurement runs want
# `go test -bench=. -benchtime=10x .` by hand.
bench: allocs
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The end-to-end benchmark is its own module (bench/go.mod), which the root
# ./... patterns never compile: this is where an API change in
# core/allreduce/dpt/mpi that breaks it shows up (~15 s).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Allocation profile of the training hot path, gated against the committed
# BENCH_alloc.json baseline (fails if allocs/op regresses > 2x). The run's
# own report goes to the OS temp dir; use allocs-baseline to regenerate the
# committed baseline alongside an intentional change. The baseline was
# recorded at one proc: on a multi-core box, GOMAXPROCS=1 make allocs.
allocs:
	$(GO) run ./cmd/benchtool allocs -learners 2 -devices 1 -steps 25 \
		-baseline BENCH_alloc.json

allocs-baseline:
	$(GO) run ./cmd/benchtool allocs -learners 2 -devices 1 -steps 25 \
		-json BENCH_alloc.json

# Compute-kernel throughput (GEMM GFLOP/s, conv fwd+bwd step time at 1 worker
# vs the full pool, ReLU and 2x2 max-pool, codec, vector-add and SGD-step GB/s), gated against the committed
# BENCH_kernels.json baseline (fails if any throughput drops > 2x). The
# baseline records the pool width and the GEMM kernel ("avx2" or "portable")
# it was taken with, and the gate refuses to compare a run that differs in
# either, so both targets pin GOMAXPROCS=2. Use kernels-baseline to regenerate
# the committed baseline alongside an intentional change.
kernels:
	GOMAXPROCS=2 $(GO) run ./cmd/benchtool kernels -baseline BENCH_kernels.json

kernels-baseline:
	GOMAXPROCS=2 $(GO) run ./cmd/benchtool kernels -json BENCH_kernels.json

# The pure-Go kernels (GEMM, the packed convolution's tap axpy and dot, vector
# add, momentum step, rectify / add-rectify / gate, the 2x2 max pool), which an
# amd64 build otherwise never runs: the purego tag is the one switch that
# forces them.
kernels-purego:
	$(GO) test -tags purego ./internal/kernels ./internal/tensor ./internal/nn ./internal/models ./internal/sgd ./internal/mpi ./internal/allreduce ./internal/dpt ./internal/core

# 20 s of each fuzz target, from its committed corpus: the SIMD-vs-portable
# kernels, the packed convolution vs Im2Col+Gemm+Col2Im (internal/tensor/convref, the tests' reference), then the DIMD decoders (window decode vs the dense reference, the
# shuffle's record frames). The decoders' inputs are kilobyte blobs, which the
# fuzzer's default 60 s minimisation of every interesting input would spend
# the whole smoke on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGemmSIMDMatchesPortable -fuzztime 20s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzVecKernelsMatchPortable -fuzztime 20s ./internal/kernels
	$(GO) test -run '^$$' -fuzz FuzzConvPackedMatchesIm2Col -fuzztime 20s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s -fuzzminimizetime 1s ./internal/imagecodec
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalRecords -fuzztime 20s -fuzzminimizetime 1s ./internal/dimd

# The overlap workload CI runs: phased vs reactive schedules of the same
# comm-heavy job, with the JSON report benchtool uploads as an artifact —
# fails unless the final weights stay bitwise identical, as shard and hier do.
overlap:
	$(GO) run ./cmd/benchtool overlap -learners 2 -devices 1 -steps 10 -json overlap.json

# The ZeRO-1 sharded-optimizer workload CI runs: replicated vs sharded state,
# per-rank optimizer bytes, step time, and the bitwise equivalence check.
shard:
	$(GO) run ./cmd/benchtool shard -learners 4 -devices 1 -steps 10 -json shard.json

# The hierarchical-collectives workload CI runs: flat vs topology-routed
# gradient exchange on an asymmetric fabric — fails unless the slow-link
# bytes drop >= 2x and the final weights stay bitwise identical.
hier:
	$(GO) run ./cmd/benchtool hier -nodes 2 -ranks 4 -devices 1 -steps 6 -json hier.json

# The chaos-resilience workload CI runs: a rank is killed every 5 steps of an
# elastic training run (with rejoins), and the job fails unless every
# recovery completes and the final loss stays within tolerance of the
# failure-free baseline.
chaos:
	$(GO) run ./cmd/benchtool chaos -seed 1 -learners 4 -steps 12 -json chaos.json

# The network simulator sweep CI uploads: predicted step time,
# per-link-class bytes, and the most loaded links for every collective ×
# codec at 2×4 / 16×8 / 64×8 on the charged Minsky fabric (~15 s). Fails if
# any link reports utilization above 1.
sim:
	$(GO) run ./cmd/benchtool sim -nodes 64 -ranks 8 -json sim.json

# The calibration gate CI runs: fit the simulator's host-overhead knob
# against live 2×4 runs and fail unless byte counts agree exactly and the
# predicted-vs-measured step time holds MAPE <= 15%.
sim-calibrate:
	$(GO) run ./cmd/benchtool sim-calibrate -json sim.json

# The simulator's drift tripwires under -race, the step CI pins: byte
# cross-validation of all seven extracted schedules against live
# World.Traffic, same-seed determinism, the fabric-less rows recorded from
# the pre-charging engine, the engine's schedule invariants, and what a
# charged FatTree does to two or three messages (link rate, sharing, rails,
# spine, pipelining). A -run pattern that matches nothing passes silently,
# so the target counts what ran against the list.
SIM_CROSSVAL := SimBytesMatchLiveTraffic ScheduleBytesMatchWireSizer \
	SameSeedByteIdenticalTraces DifferentSeedsVaryOnlyJitter \
	FabriclessWorldUnchanged DegradedSpineSlowsCrossLeafSteps \
	NoLinkCarriesMoreThanItsBandwidth RecvSizeMustMatchSend TwoStreamsOnOneQueue \
	PathBandwidth SingleHostProfiles OversubscribedCoreLinks AsymmetricUpDownProfiles \
	SingleFlowTime TwoFlowsShareLink SeparateRailsDontShare CrossLeafRouteUsesFabric \
	OversubscribedFabricSlower DependencyChainSerializes PipelineOverlaps
empty :=
space := $(empty) $(empty)
sim-crossval:
	$(GO) test -race -timeout 10m -v -run '^Test($(subst $(space),|,$(strip $(SIM_CROSSVAL))))$$' \
		./internal/simevent ./internal/simnet > sim-crossval.log || { cat sim-crossval.log; exit 1; }
	@ran=$$(grep -c '^--- PASS' sim-crossval.log); echo "sim-crossval: $$ran of $(words $(SIM_CROSSVAL)) tests passed"; \
		test "$$ran" -eq $(words $(SIM_CROSSVAL))

lint:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | test -z "$$(cat)"

clean:
	$(GO) clean ./...
