# Mirrors .github/workflows/ci.yml: `make build test bench lint` is what CI
# runs, so a green local make means a green pipeline.

GO ?= go

.PHONY: all build cross test race race-overlap race-ownership race-sharded race-hierarchical race-elastic race-kernels bench bench-module allocs allocs-baseline kernels kernels-baseline kernels-purego fuzz-smoke overlap shard hier chaos sim sim-calibrate sim-crossval lint clean

all: lint build test

build:
	$(GO) build ./...

# The GOARCHes no other target compiles: a 32-bit int (untyped constants that
# overflow only there — vetted too, so test files count) and one without the
# AVX2 kernels (the !amd64 halves of the kernel build tags). The codec tests
# also run on 386 (natively on an amd64 host, about 1 s): a wire count or
# index converted to a 32-bit int is where a decoder wraps or goes negative.
# The committed weight hashes are checked once more on the pure-Go kernels,
# the loops every GOARCH without AVX2 runs.
cross:
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) test ./internal/compress
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -tags purego -run TestGoldenWeightHashes ./internal/core

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on -timeout 40m ./...

# The suites CI pins under -race, one target each, so the -run list lives
# here and nowhere else. $(call pinned,name,fragments,packages) runs every
# test whose name contains one of the fragments and then holds the list to
# what ran: a -run pattern that matches nothing passes silently, so a
# fragment no top-level test passed under (a renamed or deleted suite) fails
# the target.
empty :=
space := $(empty) $(empty)
define pinned
	$(GO) test -race -timeout 10m -v -run '$(subst $(space),|,$(strip $(2)))' $(3) > $(1).log || { cat $(1).log; exit 1; }
	@for f in $(2); do grep -q "^--- PASS: [A-Za-z0-9_]*$$f" $(1).log || { echo "$(1): no test matching '$$f' ran"; exit 1; }; done; \
		echo "$(1): $$(grep -c '^--- PASS' $(1).log) tests passed, all $(words $(2)) name fragments matched"
endef

# The reactive-pipeline equivalence suite: the overlapped path against the
# phased one, so a test reshuffle can't silently drop its race coverage —
# plus the Stream reused round after round, the learner's goroutines stopped
# by Close, and the device step and notified backward allocating nothing.
race-overlap:
	$(call pinned,race-overlap,Overlap Stream GradNotify BackwardNotify StepWithGradHook ReduceRange ScatterRange ParamRange StepRange Arena StaleGradients AllocatesNothing,\
		./internal/core ./internal/allreduce ./internal/dpt ./internal/models ./internal/nn ./internal/sgd)

# The buffer-ownership suite (checkptr on): pooled send/receive hand-offs
# (Send-then-mutate, SendOwned, Recv-release-reuse, TCP included), the float
# wire's byte/float views (RecvFloatsAdd summing a payload where it lies and
# releasing it on every path), a lent segment never entering the pool and a
# shared buffer recycled once by its last release, the one buffer contract
# over the four worlds, fault and TCP worlds copying, Isends leaving each
# destination's one sender in order and a charged one allocating nothing
# (internal/mpi) — and the
# lending, sharing multi-colour tree held to the copying one on multi-level
# trees, where a read of a lent window that outlived the protocol's
# happens-before edge is a reported race (internal/allreduce).
race-ownership:
	$(call pinned,race-ownership,Pool SendThenMutate SendOwned SendRecvSteadyState IsendInline IsendKeepsOrder ChargedIsend RecvFloatsAdd EncodeDecode LentSegment SharedBuffer LendShare TransportContract FaultAndTCPWorldsCopy TreeLendShare MultiColorReusesCallState,\
		./internal/mpi ./internal/allreduce)

# The sharded-vs-replicated (ZeRO-1) equivalence suite: the collectives
# decomposition, the owner-routed reduce-scatter stream, the shard-aware
# optimizers, and the sharded<->replicated checkpoint round trips.
race-sharded:
	$(call pinned,race-sharded,Shard ReduceScatter AllGather UniformBounds,\
		./internal/core ./internal/allreduce ./internal/sgd ./internal/checkpoint ./internal/dpt)

# The hierarchical-vs-flat equivalence suite: the topology layout and its
# link accounting, the leader-chain stream routing (allreduce and
# reduce-scatter modes, all codecs), and the end-to-end training equivalence
# across phased/overlap/sharded schedules.
race-hierarchical:
	$(call pinned,race-hierarchical,Hierarchical Topology,\
		./internal/core ./internal/allreduce ./internal/mpi)

# The fault-tolerance suite: fault injection and detection timeouts (the
# seeded drop schedule as the wire sees it), ErrRankDown surfacing on every
# survivor under all four schedules, the poison path through the compressed
# stream, the checkpoint resize round trip, the heartbeat monitor, hostile TCP
# frame headers, and the elastic shrink/rejoin/spare-join protocol end to end
# over both the mailbox and TCP loopback fabrics. No collective may
# deadlock on rank death.
race-elastic:
	$(call pinned,race-elastic,Fault RankDown Chaos Resize Elastic Monitor Spare TCP,\
		./internal/mpi ./internal/allreduce ./internal/core ./internal/elastic ./internal/checkpoint ./internal/detect)

# The compute-kernel determinism suite: the worker pool's fork-join
# accounting, parallel kernels bitwise-identical to the serial reference
# across worker counts (the adversarial-shape GEMM sweep, the AVX2-vs-pure-Go
# GEMM, vector-add and momentum-step sweeps and fuzz seeds), DecompressAdd
# (the fused reduce path) equal to decode-then-add for every codec, the
# unrolled int8 and quickselect top-k encoders byte-identical to their
# references, bf16's round-to-nearest-even / round-trip properties, and
# kernel dispatch allocating nothing.
race-kernels:
	$(call pinned,race-kernels,Run SetWorkers ChunkBounds GradChunks GemmBitwise GemmPacked GemmSIMD GemmStore GemmShortOperand VecKernels ActivationKernels MomentumStep AddInto MaxPool2x2 Im2Col ConvPacked PackInput PackWindows LayersBitwise LayersReuse BackwardStores SkipInputGrad ConvMatchesIm2Col ConvBackwardScratch ConvBackwardReuses DecompressAdd Int8Vectorized TopKQuickselect Half BF16Encode AllocatesNothing,\
		./internal/kernels ./internal/tensor ./internal/nn ./internal/compress)

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
# BENCH_alloc.json baseline (fails if allocs/step grows past
# max(1.05 x baseline, baseline + 2)). The run's own report goes to the OS
# temp dir; use allocs-baseline to regenerate the committed baseline
# alongside an intentional change. The workload runs at GOMAXPROCS 1 and 2
# itself, each gated against the baseline's row for the same value, and
# prints the 2-proc − 1-proc gap, so both targets read the same on any box.
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

# 20 s of each fuzz target, from its committed corpus — CI's one fuzz step, so
# the list lives here: the SIMD-vs-portable kernels, the packed convolution vs
# Im2Col+Gemm+Col2Im (internal/tensor/convref, the tests' reference), the
# float wire's in-place add at every byte offset vs decode-then-add, then the
# parsers of bytes that arrive off a disk or a wire (window decode vs the dense
# reference, the TCP frame reader, the shuffle's record frames, a DIMD pack,
# a checkpoint, a recovery verdict, every codec's two decoders held to each
# other, the Stream's poison messages): never a panic, never an allocation a
# header alone can size. The parsers' inputs are kilobyte blobs, which the fuzzer's default
# 60 s minimisation of every interesting input would spend the whole smoke on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGemmSIMDMatchesPortable -fuzztime 20s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzVecKernelsMatchPortable -fuzztime 20s ./internal/kernels
	$(GO) test -run '^$$' -fuzz FuzzConvPackedMatchesIm2Col -fuzztime 20s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzAddFloat32s -fuzztime 20s ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzTCPReadLoop -fuzztime 20s -fuzzminimizetime 1s ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s -fuzzminimizetime 1s ./internal/imagecodec
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalRecords -fuzztime 20s -fuzzminimizetime 1s ./internal/dimd
	$(GO) test -run '^$$' -fuzz FuzzReadPack -fuzztime 20s -fuzzminimizetime 1s ./internal/dimd
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 20s -fuzzminimizetime 1s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzParseVerdict -fuzztime 20s -fuzzminimizetime 1s ./internal/elastic
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 20s -fuzzminimizetime 1s ./internal/compress
	$(GO) test -run '^$$' -fuzz FuzzPoisonError -fuzztime 20s -fuzzminimizetime 1s ./internal/allreduce

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
# spine, pipelining) — a pinned suite like the race-* ones above, its list
# named because it is long.
SIM_CROSSVAL := SimBytesMatchLiveTraffic ScheduleBytesMatchWireSizer \
	SameSeedByteIdenticalTraces DifferentSeedsVaryOnlyJitter \
	FabriclessWorldUnchanged DegradedSpineSlowsCrossLeafSteps \
	NoLinkCarriesMoreThanItsBandwidth RecvSizeMustMatchSend TwoStreamsOnOneQueue \
	PathBandwidth SingleHostProfiles OversubscribedCoreLinks AsymmetricUpDownProfiles \
	SingleFlowTime TwoFlowsShareLink SeparateRailsDontShare CrossLeafRouteUsesFabric \
	OversubscribedFabricSlower DependencyChainSerializes PipelineOverlaps
sim-crossval:
	$(call pinned,sim-crossval,$(SIM_CROSSVAL),./internal/simevent ./internal/simnet)

lint:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | test -z "$$(cat)"

clean:
	$(GO) clean ./...
