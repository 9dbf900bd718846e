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
# cancellable-execution tests in core and sched.
faults:
	$(GO) test -race -run 'TestFault|TestServeBodyLimit|TestDispatcher|TestExecuteInCtx|TestRunBatch' \
		./internal/serve ./internal/core ./internal/sched

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
# the sequential per-group reference, plus the depthwise planned-path and
# workspace-shrinkage acceptance checks. The in-test width-{1,4} pools
# cover pool shape; the GOMAXPROCS legs cover the unforced default pool
# the serve tests run on.
grouped-smoke:
	@for procs in 1 4; do \
		echo "grouped-smoke: GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs \
			$(GO) test -race -count 1 -run 'TestGrouped|TestDepthwise|TestFaultGroupedCancel' \
			./internal/conv ./internal/core ./internal/serve || exit 1; \
	done

# bitwise-smoke repeats the bitwise suites of the EWM kernels, the unit
# epilogue and the pooled reduce under the race detector at GOMAXPROCS 1
# and 4: each chunk kernel against the Go 4×4 panel, the AVX2 chunk kernel
# against its per-tile oracle over chunked tile sequences, the panel
# transforms' column independence (one chunk-wide call equals per-tile
# calls), every forced EWM mode against the forced 4×4 tier, the
# streaming epilogue against its per-element oracle, poisoned (NaN)
# workspaces against fresh ones (every bucket element is stored once per
# run; nothing zeroes them),
# pool-vs-inline and shared-pool concurrency, mid-run cancellation, and
# the FP16, quantized and 3-D reference executors, and the channel-wide
# depthwise grid against the per-group reference at pool widths 1–8. On
# an AVX2 or F16C host TestBitwiseSuitesGoKernels runs the suites again on
# the Go kernels, so both kernel paths are pinned. Pool workers share the
# reduce, so each suite runs 5 times. Last, both binary16 rounding paths
# (F16C and Go) are swept over all 2^32 float32 patterns (about 40 s on
# two CPUs; tier-1 sweeps a strided subset).
bitwise-smoke:
	@for procs in 1 4; do \
		echo "bitwise-smoke: GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs \
			$(GO) test -race -count 5 -run 'TestWriteOutputMatchesRef|TestExecuteInPoisonedWorkspaceMatchesFresh|TestPoolMatchesInline|TestConcurrentExecuteSharedPool|TestExecuteInCtxCancelMidRun|TestExecuteHalfMatchesScalarCodecRef|TestQuantizedMatchesRef|TestExecute3DMatchesRef|TestEWMPanelVariantsMatchBase|TestEWMBlockedMatchesPanel|TestMulPanelColumnsIndependent|TestEWMForcedVariantsMatchBaseFP32|TestDepthwiseChannelWideMatchesPerGroup|TestBitwiseSuitesGoKernels' \
			./internal/core ./internal/winograd || exit 1; \
	done
	$(GO) test -tags exhaustive -count 1 -run '^TestRoundSliceF16CSweep$$' ./internal/fp16

# cross-build compiles the non-amd64 fallbacks of the AVX2 and F16C
# kernels and the CPU feature detection, which no amd64 build touches: vet
# on arm64 and 386, and the arm64 test binaries of the packages that carry
# them.
cross-build:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/core
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/kahan
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/cpufeat
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/fp16

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
	$(GO) test ./internal/kahan -run '^$$' -fuzz '^FuzzReduceAVX2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzConversion$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzOrdering$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzEncodeMatchesScalar$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -run '^$$' -fuzz '^FuzzRoundSliceF16C$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzProtoRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp16 -count 1 -run '^TestDecodeSliceExhaustive$$|^TestEncodeSliceBoundarySweep$$'
