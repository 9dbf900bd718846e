GO ?= go

# Latest committed benchmark baseline (BENCH_<date>.json, lexicographic =
# chronological). Override: make bench-gate BENCH_BASELINE=BENCH_x.json
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_THRESHOLD ?= 0.15
FUZZTIME ?= 30s

.PHONY: ci build test vet race bench serve bench-json bench-gate fuzz-smoke faults dispatch-smoke router-smoke saturate grouped-smoke bitwise-smoke bench-smoke cross-build

ci: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

serve:
	$(GO) run ./cmd/winrs-serve

# bench-json measures the fixed regression grid into a fresh dated report.
bench-json:
	$(GO) run ./cmd/winrs-bench -json BENCH_$$(date -u +%F).json

# bench-gate re-measures the grid and fails on any hot-path result more
# than BENCH_THRESHOLD slower than the committed baseline (calibration-
# normalized, so a different machine speed cancels out). -match-procs pins
# the measurement's GOMAXPROCS to the baseline's recorded value, so the
# gate works from any CI matrix leg; -compare refuses mismatched
# environments outright.
bench-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_*.json baseline committed"; exit 1; }
	$(GO) run ./cmd/winrs-bench -match-procs $(BENCH_BASELINE) -json /tmp/bench_current.json
	$(GO) run ./cmd/winrs-bench -compare -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) /tmp/bench_current.json

# dispatch-smoke drives every registered backend through the serving path
# once (explicit algo headers plus "auto"), asserting each served gradient
# agrees with the FP64 direct-conv oracle and the per-backend dispatch
# metrics move, then runs the backend-level dispatch unit tests.
dispatch-smoke:
	$(GO) test -count 1 -run '^TestDispatchSmoke$$|^TestServeAuto|^TestServeForceAndDefaultAlgo$$' ./internal/serve
	$(GO) test -count 1 -run '^TestDispatch|^TestRanking' ./internal/backend

# faults runs the request-lifecycle robustness suite under the race
# detector: the fault-injection harness (forced panics, slow computes,
# client disconnects), dispatcher panic/cancel isolation, and the
# cancellable-execution tests in core and sched, among them a cancel and a
# deadline that stop a run before its next unit and a batch whose passed
# deadline runs nothing. The mid-run cancel tests, on a plan with separate
# segments, on a merged one and on a depthwise and a G = 2 grouped plan,
# and the deadline test run once more at GOMAXPROCS 1 without the race
# detector, the leg where a cancel that waited for a watcher goroutine
# used to miss the grid and where only the batch's own clock check sees a
# deadline pass mid-unit.
faults:
	$(GO) test -race -run 'TestFault|TestServeBodyLimit|TestDispatcher|TestExecuteInCtx|TestRunBatch' \
		./internal/serve ./internal/core ./internal/sched
	GOMAXPROCS=1 $(GO) test -count 3 -run '^TestExecuteInCtx(CancelMidRun(WorkspaceReusable|Merged|Grouped)|DeadlineStopsBeforeNextUnit)$$' ./internal/core

# router-smoke runs the sharding topology suites under the race detector:
# the consistent-hash ring's remapping bounds and the in-process router
# (stickiness, live drain).
router-smoke:
	$(GO) test -race -count 1 -run 'TestRing|TestRoute|TestRouter' ./internal/serve

# saturate is the multi-process load test: real winrs-serve ×2 and
# winrs-router processes, mixed-geometry load, shard-stickiness and
# zero-drop live-drain assertions, plus the in-process saturation row,
# merged into /tmp/bench_saturate.json (override with SATURATE_OUT; point
# it at the committed baseline to track rows).
SATURATE_OUT ?= /tmp/bench_saturate.json
saturate:
	$(GO) run ./cmd/winrs-bench -saturate $(SATURATE_OUT)
	WINRS_LOADTEST_BENCH=$(SATURATE_OUT) $(GO) test -tags loadtest -count 1 -timeout 600s -v ./internal/loadtest

# grouped-smoke runs the grouped/depthwise differential suites under the
# race detector at GOMAXPROCS 1 and 4. Every grouped path (FP32, FP16,
# strided, forward, data gradient, serve round-trip, mid-run
# cancellation) is pinned against the grouped float64 direct oracle and
# the sequential per-group reference (mid-run cancellation against the
# uncancelled result on a reused workspace and destination), plus the
# depthwise planned-path and workspace-shrinkage acceptance checks and the
# pin that a grouped plan's Ẑ and segments are those of one group's
# channel slice. The grouped dense-grid differential runs again on forced
# O_C blocks of 1, 2, 3 and 5 filters (ragged last blocks). The in-test
# width-{1,4} pools cover pool shape; the GOMAXPROCS legs cover the
# unforced default pool the serve tests run on.
grouped-smoke:
	@for procs in 1 4; do \
		echo "grouped-smoke: GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs \
			$(GO) test -race -count 1 -run 'TestGrouped|TestDepthwise|TestFaultGroupedCancel|TestExecuteInCtxCancelMidRunGrouped' \
			./internal/conv ./internal/core ./internal/serve || exit 1; \
		GOMAXPROCS=$$procs \
			$(GO) test -race -count 1 -run '^TestBitwiseSuitesBlockedUnits$$/^ob/^GroupedInterleavedMatchesSequential$$' \
			./internal/core || exit 1; \
	done

# bitwise-smoke repeats the bitwise suites of the EWM kernels, the panel
# transforms, the unit epilogue and the pooled reduce under the race
# detector at GOMAXPROCS 1 and 4: each chunk kernel against the Go 4×4
# panel, the AVX2 chunk kernel against its per-tile oracle over chunked
# tile sequences, the AVX2 transform kernel against its Go loop over every
# plan a unit runs, the panel transforms' column independence (one
# chunk-wide call equals per-tile calls) on both paths, the AVX2 diagonal
# EWM of depthwise units against its Go loop, every forced EWM mode
# against the forced 4×4 tier, the one-pass
# AVX2 output kernel against its Go loop at every row count it takes, the
# epilogue against its per-element oracle, the in-place Kahan reduce
# (bucket 0 is the destination of every plan) against the
# out-of-place one, poisoned (NaN) workspaces against fresh ones (every
# bucket element is stored once per run; nothing zeroes them),
# pool-vs-inline and shared-pool concurrency,
# mid-run cancellation, the FP16, quantized and 3-D reference executors
# (a merged 3-D plan too),
# and the channel-wide depthwise grid (pool widths 1–8) and the grouped
# dense grid (widths 1 and 4) against the per-group reference, depthwise
# units on NaN-filled and foreign pooled scratch (a ring slot read before
# its fill), the F16C binary16 decode against the LUT loop at every
# length 0–40 and start offset 0–7, and all 65,536 halves decoded on both
# paths (F16C cleared for the second). The reference-executor, grouped,
# poisoned-workspace and pool suites run again on forced O_C blocks with
# ragged last blocks, a layer the production rule splits is pinned to its
# unblocked plan, and the block rule to its VGG16 table, its 1 MiB
# accumulator bound and the unsplit serving keys. The same suites run
# again with the residual units merged into the fast units on every plan
# that can take it, the merged VGG16 plans are pinned to the same plans
# run with separate segments, the merged epilogue's Kahan fold to the
# two-bucket reduce, and the merge rule to its VGG16 layers. On
# an AVX2 or F16C host TestBitwiseSuitesGoKernels runs the suites again on
# the Go kernels, so both kernel paths are pinned. Pool workers share the
# reduce, so each suite runs 5 times. Last, both binary16 rounding paths
# (F16C and Go) are swept over all 2^32 float32 patterns (about 40 s on
# two CPUs; tier-1 sweeps a strided subset).
bitwise-smoke:
	@for procs in 1 4; do \
		echo "bitwise-smoke: GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs \
			$(GO) test -race -count 5 -run 'TestOutputRowsMatchesGo|TestWriteOutputMatchesRef|TestReduceInPlaceMatchesOutOfPlace|TestExecuteInPoisonedWorkspaceMatchesFresh|TestPoolMatchesInline|TestConcurrentExecuteSharedPool|TestExecuteInCtxCancelMidRun|TestExecuteHalfMatchesScalarCodecRef|TestQuantizedMatchesRef|TestExecute3DMatchesRef|TestExecute3DMergedMatchesRef|TestEWMPanelVariantsMatchBase|TestEWMBlockedMatchesPanel|TestMulPanelColumnsIndependent|TestMulPanelKernelMatchesGo|TestMulPanelGoLoop|TestEWMDiagMatchesGo|TestEWMForcedVariantsMatchBaseFP32|TestDepthwiseChannelWideMatchesPerGroup|TestDepthwiseStaleScratch|TestGroupedInterleavedMatchesSequential|TestBitwiseSuitesGoKernels|TestDecodeF16CMatchesLUT|TestDecodeSliceExhaustive|TestBitwiseSuitesBlockedUnits|TestBlockedUnitsMatchUnblocked|TestDenseBlockRule|TestMergeRule|TestMergedResidualMatchesSeparate|TestBitwiseSuitesMergedResidual|TestWriteOutputFoldMatchesReduce' \
			./internal/core ./internal/winograd ./internal/kahan ./internal/fp16 || exit 1; \
	done
	$(GO) test -tags exhaustive -count 1 -run '^TestRoundSliceF16CSweep$$' ./internal/fp16

# cross-build compiles the non-amd64 fallbacks of the AVX2 and F16C
# kernels and the CPU feature detection, which no amd64 build touches: vet
# on arm64 and 386, and the arm64 test binaries of the packages that carry
# them. It then fails if the arm64 code of the Go loops in NOFMA_FUNCS
# holds a fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB): those loops
# are the portable kernels (the AVX2 kernels' oracles and tails) and the
# test oracles that pin them, and a fused product rounds once where amd64
# rounds twice. Each function must be found, so a rename cannot empty the
# check.
NOFMA_FUNCS := 'winograd.(*SymPlan).MulPanel' 'winograd.(*SymPlan).mulPanelGo' 'winograd.(*SymPlan).MulVec32' \
	core.ewmDiag core.channelUnit.run core.ewmPanel core.ewmChunkAVX2 core.outputRowsGo core.matTMulF32 \
	core.ewmChunkRef core.writeOutputRef core.segmentTile3DRef core.matMulF32
cross-build:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for pkg in core kahan cpufeat fp16 winograd; do \
		echo "GOARCH=arm64 $(GO) test -c ./internal/$$pkg"; \
		GOARCH=arm64 $(GO) test -c -o "$$tmp/$$pkg.test" ./internal/$$pkg; \
	done; \
	for fn in $(NOFMA_FUNCS); do \
		re="^winrs/internal/$$(printf '%s' "$$fn" | sed 's/[.()*]/\\&/g')$$"; \
		$(GO) tool objdump -s "$$re" "$$tmp/$${fn%%.*}.test" > "$$tmp/dis"; \
		grep -q '^TEXT' "$$tmp/dis" || { echo "cross-build: $$fn not found in the arm64 build"; exit 1; }; \
		if grep -E '\bFN?M(ADD|SUB)' "$$tmp/dis"; then echo "cross-build: fused multiply-add in $$fn (arm64)"; exit 1; fi; \
	done; \
	echo "cross-build: no fused multiply-add in $(NOFMA_FUNCS)"

# bench-smoke runs the end-to-end benchmark's own tests (about 10 s).
# bench/ is a separate Go module, so the root `go test ./...` never
# compiles it — nor its probes of the core exports it calls.
bench-smoke:
	cd bench && $(GO) test ./...

# fuzz-smoke runs every fuzz target from its seed corpus for FUZZTIME
# each (the AVX2 and F16C kernel targets skip on hosts without them),
# plus the exhaustive codec equivalence sweeps (all 65536 decode patterns,
# every encode rounding boundary) that anchor the fuzz targets.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzConfigurePartition$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzExecuteMatchesDirect$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzEWMPanelAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzOutputRowAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzEWMDiagAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/winograd -run '^$$' -fuzz '^FuzzMulPanelAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kahan -run '^$$' -fuzz '^FuzzReduceAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzConversion$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzOrdering$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzEncodeMatchesScalar$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzRoundSliceF16C$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzDecodeSliceF16C$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzProtoRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -count 1 -run '^TestDecodeSliceExhaustive$$|^TestEncodeSliceBoundarySweep$$'
