package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"winrs/internal/backend"
	"winrs/internal/benchfmt"
	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/gemm"
	"winrs/internal/obs"
	"winrs/internal/tensor"
)

// The report schema lives in internal/benchfmt so the multi-process load
// test (which appends saturation rows) shares it by construction; the
// aliases keep this package's call sites unchanged.
const benchSchemaVersion = benchfmt.SchemaVersion

type (
	benchReport     = benchfmt.Report
	benchResult     = benchfmt.Result
	benchDispatch   = benchfmt.Dispatch
	benchSaturation = benchfmt.Saturation
)

// benchShapes is the fixed grid the gate tracks: a padded 3×3 production
// shape, a batched 5×5, and a channel-heavy 3×3. Small enough that the
// direct baseline stays in CI budget, large enough that WinRS's fused path
// dominates timer noise.
var benchShapes = []conv.Params{
	{N: 1, IH: 32, IW: 32, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1},
	{N: 2, IH: 16, IW: 16, FH: 5, FW: 5, IC: 4, OC: 4},
	{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1},
}

// benchGroupedShapes extends the gate to grouped and depthwise BFC: the
// channel-heavy grid shape split four ways, and the same shape fully
// depthwise (G == IC). Tagged with a _G suffix, so they land as NEW
// (warn-only) against pre-grouping baselines and gate normally once a
// baseline containing them is committed.
var benchGroupedShapes = []conv.Params{
	{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 4},
	{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16},
	// Production depthwise-separable trunk shapes (MobileNet-style 56×56
	// stages): per-group work is a single channel, so these rows stress
	// the channel-wide depthwise grid.
	{N: 1, IH: 56, IW: 56, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1, Groups: 64},
	{N: 1, IH: 56, IW: 56, FH: 3, FW: 3, IC: 128, OC: 128, PH: 1, PW: 1, Groups: 128},
}

func shapeTag(p conv.Params) string {
	tag := fmt.Sprintf("N%d_I%dx%d_F%dx%d_C%dx%d_P%d%d",
		p.N, p.IH, p.IW, p.FH, p.FW, p.IC, p.OC, p.PH, p.PW)
	if p.G() > 1 {
		tag += fmt.Sprintf("_G%d", p.G())
	}
	return tag
}

// measureNs times fn as min-of-batches: reps are sized so one batch runs
// ≳20ms, and the fastest of 3 batches is reported — the standard defense
// against scheduler noise (this host shows multi-second bursts) without a
// benchmarking dependency.
func measureNs(fn func()) float64 {
	fn() // warm pools, page in operands
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 20*time.Millisecond {
			best := float64(d.Nanoseconds()) / float64(reps)
			for b := 1; b < 5; b++ {
				t0 = time.Now()
				for i := 0; i < reps; i++ {
					fn()
				}
				if v := float64(time.Since(t0).Nanoseconds()) / float64(reps); v < best {
					best = v
				}
			}
			return best
		}
		reps *= 2
	}
}

// calibrationNs measures a fixed FP32 GEMM microbenchmark. Compare mode
// divides ns/op by this so a baseline from a faster or slower machine
// still gates relative regressions.
func calibrationNs() float64 {
	const k, m, n = 64, 48, 48
	a := make([]float32, k*m)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	rng := rand.New(rand.NewSource(7))
	for i := range a {
		a[i] = rng.Float32()
	}
	for i := range b {
		b[i] = rng.Float32()
	}
	return measureNs(func() { gemm.Gemm(a, b, c, k, m, n) })
}

// benchStageShares runs the plan a few times under tracing and returns the
// per-stage time shares (transform/EWM/reduce as fractions of wall time).
func benchStageShares(run func()) map[string]float64 {
	obs.ResetTrace()
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	for i := 0; i < 5; i++ {
		run()
	}
	return obs.StageShares()
}

// runBenchJSON measures the grid and writes the report to path ("-" for
// stdout).
func runBenchJSON(path string) error {
	rep := benchReport{
		SchemaVersion: benchSchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CalibrationNs: calibrationNs(),
	}

	for _, p := range benchShapes {
		rng := rand.New(rand.NewSource(11))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, 0, 1)
		dy.FillUniform(rng, 0, 1)
		tag := shapeTag(p)

		cfg32, err := core.Configure(p)
		if err != nil {
			return fmt.Errorf("configure %s: %w", tag, err)
		}
		ws32 := core.NewWorkspace(cfg32)
		dst := tensor.NewFloat32(p.DWShape())
		run32 := func() { core.ExecuteIn(cfg32, ws32, x, dy, dst) }
		rep.Results = append(rep.Results, benchResult{
			Name: "winrs_fp32/" + tag, Algo: "winrs_fp32", Shape: tag,
			NsPerOp:        measureNs(run32),
			AllocsPerOp:    testing.AllocsPerRun(10, run32),
			WorkspaceBytes: cfg32.WorkspaceBytes(),
			WHatCacheBytes: cfg32.WHatCacheBytes(),
			HotPath:        true,
			StageShares:    benchStageShares(run32),
			EWMKernel:      cfg32.EWMKernel(),
		})

		cfg16, err := core.Configure(p, core.WithFP16())
		if err != nil {
			return fmt.Errorf("configure fp16 %s: %w", tag, err)
		}
		ws16 := core.NewWorkspace(cfg16)
		xh, dyh := x.ToHalf(), dy.ToHalf()
		run16 := func() { core.ExecuteHalfIn(cfg16, ws16, xh, dyh, dst) }
		rep.Results = append(rep.Results, benchResult{
			Name: "winrs_fp16/" + tag, Algo: "winrs_fp16", Shape: tag,
			NsPerOp:        measureNs(run16),
			AllocsPerOp:    testing.AllocsPerRun(10, run16),
			WorkspaceBytes: cfg16.WorkspaceBytes(),
			WHatCacheBytes: cfg16.WHatCacheBytes(),
			HotPath:        true,
			StageShares:    benchStageShares(run16),
			EWMKernel:      cfg16.EWMKernel(),
		})

		rep.Results = append(rep.Results, benchResult{
			Name: "im2col_gemm/" + tag, Algo: "im2col_gemm", Shape: tag,
			NsPerOp:        measureNs(func() { gemm.Algo1(p, x, dy) }),
			AllocsPerOp:    testing.AllocsPerRun(5, func() { gemm.Algo1(p, x, dy) }),
			WorkspaceBytes: gemm.Algo1Workspace(p),
		})
		rep.Results = append(rep.Results, benchResult{
			Name: "direct/" + tag, Algo: "direct", Shape: tag,
			NsPerOp:     measureNs(func() { gemm.Algo0(p, x, dy) }),
			AllocsPerOp: testing.AllocsPerRun(5, func() { gemm.Algo0(p, x, dy) }),
		})

		// The remaining registry backends (FFT, non-fused Winograd) through
		// the unified interface — NEW relative to pre-dispatch baselines, so
		// compare reports them without gating — plus this shape's dispatch
		// audit.
		times := measureBackends(p, x, dy)
		for _, name := range []string{"fft", "winnf"} {
			ns, ok := times[name]
			if !ok {
				continue // winnf skips non-square grid shapes
			}
			b, _ := backend.Default().Get(name)
			rep.Results = append(rep.Results, benchResult{
				Name: name + "/" + tag, Algo: name, Shape: tag,
				NsPerOp:        ns,
				WorkspaceBytes: b.WorkspaceBytes(p, backend.FP32),
			})
		}
		rec, err := dispatchAudit(p, tag, times)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: dispatch %s -> %s (within-best %.2fx of %s)\n",
			tag, rec.Chosen, rec.WithinBest, rec.BestBackend)
		rep.Dispatch = append(rep.Dispatch, rec)
	}

	// Grouped and depthwise rows: the WinRS path runs the per-group plan's
	// segments on the whole layer — the dense unit grid with a group axis,
	// or the channel-wide depthwise grid — on buckets of the grouped ∇W,
	// so these rows also pin the paper's headline quantity (workspace
	// shrinkage) into the report.
	// The direct baseline is the grouped float64-oracle's float32 sibling.
	for _, p := range benchGroupedShapes {
		rng := rand.New(rand.NewSource(13))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, 0, 1)
		dy.FillUniform(rng, 0, 1)
		tag := shapeTag(p)

		cfg32, err := core.Configure(p)
		if err != nil {
			return fmt.Errorf("configure %s: %w", tag, err)
		}
		ws32 := core.NewWorkspace(cfg32)
		dst := tensor.NewFloat32(p.DWShape())
		run32 := func() { core.ExecuteIn(cfg32, ws32, x, dy, dst) }
		rep.Results = append(rep.Results, benchResult{
			Name: "winrs_fp32/" + tag, Algo: "winrs_fp32", Shape: tag,
			NsPerOp:        measureNs(run32),
			AllocsPerOp:    testing.AllocsPerRun(10, run32),
			WorkspaceBytes: cfg32.WorkspaceBytes(),
			WHatCacheBytes: cfg32.WHatCacheBytes(),
			HotPath:        true,
			EWMKernel:      cfg32.EWMKernel(),
		})

		cfg16, err := core.Configure(p, core.WithFP16())
		if err != nil {
			return fmt.Errorf("configure fp16 %s: %w", tag, err)
		}
		ws16 := core.NewWorkspace(cfg16)
		xh, dyh := x.ToHalf(), dy.ToHalf()
		run16 := func() { core.ExecuteHalfIn(cfg16, ws16, xh, dyh, dst) }
		rep.Results = append(rep.Results, benchResult{
			Name: "winrs_fp16/" + tag, Algo: "winrs_fp16", Shape: tag,
			NsPerOp:        measureNs(run16),
			AllocsPerOp:    testing.AllocsPerRun(10, run16),
			WorkspaceBytes: cfg16.WorkspaceBytes(),
			WHatCacheBytes: cfg16.WHatCacheBytes(),
			HotPath:        true,
			EWMKernel:      cfg16.EWMKernel(),
		})

		rep.Results = append(rep.Results, benchResult{
			Name: "direct/" + tag, Algo: "direct", Shape: tag,
			NsPerOp: measureNs(func() { conv.BackwardFilterDirect32(p, x, dy) }),
		})
	}

	// EWM-only microbenchmark rows: per Ω kernel, per block shape, fused
	// vs unfused — kernel-tier regressions stay attributable without a
	// full grid run. Hot-path gated like the grid rows.
	for _, cell := range core.EWMMicroCells() {
		name := "ewm/" + cell.Kernel + "/" + cell.Variant
		rep.Results = append(rep.Results, benchResult{
			Name: name, Algo: "ewm_micro", Shape: cell.Kernel,
			NsPerOp:     measureNs(cell.Run),
			AllocsPerOp: testing.AllocsPerRun(10, cell.Run),
			HotPath:     true,
			EWMKernel:   cell.Variant,
		})
	}

	return rep.Write(path)
}

// measureBackends times every eligible FP32 backend on the shape through
// the unified interface (min-of-batches, like the grid rows), so the
// dispatch audit compares the same quantity the dispatcher optimizes.
func measureBackends(p conv.Params, x, dy *tensor.Float32) map[string]float64 {
	times := map[string]float64{}
	dst := tensor.NewFloat32(p.DWShape())
	for _, b := range backend.Default().Eligible(p, backend.FP32) {
		b := b
		times[b.Name()] = measureNs(func() {
			if err := b.ExecuteCtx(context.Background(), p, x, dy, dst); err != nil {
				panic(err) // geometry was vetted by Supports
			}
		})
	}
	return times
}

// dispatchAudit runs the real dispatcher (with measurement refinement, as
// winrs-serve would on a plan-cache miss) and scores its choice against
// the full per-backend measurement.
func dispatchAudit(p conv.Params, tag string, times map[string]float64) (benchDispatch, error) {
	d, err := backend.Default().Dispatch(p, backend.FP32, backend.Options{Measure: true})
	if err != nil {
		return benchDispatch{}, err
	}
	rec := benchDispatch{Shape: tag, Chosen: d.Backend, Measured: d.Measured,
		BackendNs: times, Candidates: d.Candidates}
	for name, ns := range times {
		if rec.BestNsPerOp == 0 || ns < rec.BestNsPerOp {
			rec.BestBackend, rec.BestNsPerOp = name, ns
		}
	}
	rec.ChosenNsPerOp = times[d.Backend]
	if rec.BestNsPerOp > 0 {
		rec.WithinBest = rec.ChosenNsPerOp / rec.BestNsPerOp
	}
	return rec, nil
}

// pinProcsToBaseline sets runtime GOMAXPROCS to the value recorded in the
// given baseline report, so a fresh -json measurement stays comparable to
// it even when CI runs the build under a different GOMAXPROCS (the
// {1,4} matrix legs both gate against the committed baseline this way).
func pinProcsToBaseline(path string) error {
	rep, err := readBenchReport(path)
	if err != nil {
		return err
	}
	if rep.GOMAXPROCS < 1 {
		return fmt.Errorf("%s: no gomaxprocs recorded; cannot -match-procs against it", path)
	}
	if cur := runtime.GOMAXPROCS(0); cur != rep.GOMAXPROCS {
		fmt.Printf("bench: pinning GOMAXPROCS %d -> %d to match %s\n", cur, rep.GOMAXPROCS, path)
		runtime.GOMAXPROCS(rep.GOMAXPROCS)
	}
	return nil
}

func readBenchReport(path string) (*benchReport, error) {
	return benchfmt.Read(path)
}

// checkEnvMatch refuses to diff reports from mismatched environments:
// GOMAXPROCS changes what the scheduler parallelizes and a Go version
// changes codegen, so a ratio across either is meaningless — calibration
// only cancels clock speed. Fields absent from older schema-1 reports
// (NumCPU) or a CPU-count difference (which calibration does absorb for
// the serial grid) only warn.
func checkEnvMatch(oldRep, newRep *benchReport, oldPath, newPath string) error {
	if oldRep.GOMAXPROCS > 0 && newRep.GOMAXPROCS > 0 && oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		return fmt.Errorf("bench-gate: environment mismatch: %s ran with GOMAXPROCS=%d, %s with GOMAXPROCS=%d; "+
			"re-measure with -match-procs %s (or set GOMAXPROCS) instead of comparing across widths",
			oldPath, oldRep.GOMAXPROCS, newPath, newRep.GOMAXPROCS, oldPath)
	}
	if oldRep.GoVersion != "" && newRep.GoVersion != "" && oldRep.GoVersion != newRep.GoVersion {
		return fmt.Errorf("bench-gate: environment mismatch: %s built with %s, %s with %s; "+
			"refresh the baseline with the current toolchain before gating",
			oldPath, oldRep.GoVersion, newPath, newRep.GoVersion)
	}
	switch {
	case oldRep.NumCPU == 0 || newRep.NumCPU == 0:
		fmt.Printf("bench-gate: note: CPU count missing from one report (pre-num_cpu baseline); not checked\n")
	case oldRep.NumCPU != newRep.NumCPU:
		fmt.Printf("bench-gate: warning: CPU count differs (%d vs %d); calibration normalizes machine speed, not topology\n",
			oldRep.NumCPU, newRep.NumCPU)
	}
	return nil
}

// runBenchCompare diffs two reports and fails (non-nil error) when any
// hot-path result regressed by more than threshold. A case must regress
// on BOTH the raw ratio and the calibration-normalized ratio: on one
// machine the two agree, and across machines each covers the other's
// blind spot — raw is meaningless when the machine changed (normalized
// catches it), while normalization is poisoned when the machine's clock
// regime shifted between the calibration microbenchmark and the baseline's
// (the tiny cache-resident GEMM can swing ~1.7× with CPU frequency while
// the larger, memory-bound grid workloads barely move; raw catches that).
// A real code regression moves both ratios together. Reports from
// mismatched environments (GOMAXPROCS, Go version) are refused outright.
// New results without a baseline entry are reported but never fail the
// gate; vanished baselines do fail it — a silently dropped hot path is a
// regression too.
func runBenchCompare(oldPath, newPath string, threshold float64) error {
	oldRep, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	if err := checkEnvMatch(oldRep, newRep, oldPath, newPath); err != nil {
		return err
	}
	oldByName := map[string]benchResult{}
	for _, r := range oldRep.Results {
		oldByName[r.Name] = r
	}

	fmt.Printf("bench-gate: %s -> %s (threshold %+.0f%%, calibration %0.1f -> %0.1f ns)\n",
		oldPath, newPath, threshold*100, oldRep.CalibrationNs, newRep.CalibrationNs)
	var regressions []string
	seen := map[string]bool{}
	for _, nr := range newRep.Results {
		seen[nr.Name] = true
		or, ok := oldByName[nr.Name]
		if !ok {
			fmt.Printf("  NEW   %-40s %12.0f ns/op (no baseline, not gated)\n", nr.Name, nr.NsPerOp)
			continue
		}
		// Calibration-normalized ratio: machine speed cancels out. Raw
		// ratio: immune to calibration noise. Gate on the lesser slowdown.
		norm := (nr.NsPerOp / newRep.CalibrationNs) / (or.NsPerOp / oldRep.CalibrationNs)
		raw := nr.NsPerOp / or.NsPerOp
		ratio := norm
		if raw < ratio {
			ratio = raw
		}
		verdict := "ok"
		if nr.HotPath && ratio > 1+threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %+.1f%% raw, %+.1f%% normalized", nr.Name, (raw-1)*100, (norm-1)*100))
		}
		fmt.Printf("  %-5s %-40s %12.0f -> %.0f ns/op  (%+.1f%% raw, %+.1f%% normalized)\n",
			verdict, nr.Name, or.NsPerOp, nr.NsPerOp, (raw-1)*100, (norm-1)*100)
		if nr.HotPath && or.AllocsPerOp == 0 && nr.AllocsPerOp > 0 {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op 0 -> %g", nr.Name, nr.AllocsPerOp))
		}
	}
	// Dispatch-decision diff (warn-only): a flipped choice between baseline
	// and candidate is reviewer signal — maybe a cost-model retune, maybe a
	// genuinely shifted crossover — but never a gate failure; the ns/op
	// gates above already catch real regressions. Baselines predating the
	// dispatch field simply skip this check.
	oldDisp := map[string]benchDispatch{}
	for _, d := range oldRep.Dispatch {
		oldDisp[d.Shape] = d
	}
	for _, nd := range newRep.Dispatch {
		od, ok := oldDisp[nd.Shape]
		if !ok {
			continue
		}
		if od.Chosen != nd.Chosen {
			fmt.Printf("  DISPATCH FLIP %s: %s -> %s (within-best %.2fx -> %.2fx; warning only)\n",
				nd.Shape, od.Chosen, nd.Chosen, od.WithinBest, nd.WithinBest)
		}
	}

	// Saturation diff (warn-only): serving throughput depends on scheduler
	// behavior and machine load in ways the calibrated compute grid does
	// not, so a drop here is reviewer signal rather than a gate failure —
	// except a drained scenario that dropped in-flight requests, which is a
	// correctness property and does fail.
	oldSat := map[string]benchSaturation{}
	for _, s := range oldRep.Saturation {
		oldSat[s.Scenario] = s
	}
	for _, ns := range newRep.Saturation {
		if ns.Drained && ns.FailedInFlight > 0 {
			regressions = append(regressions,
				fmt.Sprintf("saturation %s: %d in-flight request(s) failed across a drain", ns.Scenario, ns.FailedInFlight))
		}
		base, ok := oldSat[ns.Scenario]
		if !ok {
			fmt.Printf("  NEW   saturation/%-33s %11.0f req/s (no baseline, not gated)\n",
				ns.Scenario, ns.Throughput)
			continue
		}
		if base.Throughput > 0 && ns.Throughput < base.Throughput*(1-threshold) {
			fmt.Printf("  SATURATION WARN %s: throughput %.0f -> %.0f req/s (%+.1f%%; warning only)\n",
				ns.Scenario, base.Throughput, ns.Throughput, (ns.Throughput/base.Throughput-1)*100)
		}
	}

	var missing []string
	for name, or := range oldByName {
		if !seen[name] && or.HotPath {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		regressions = append(regressions, name+": hot-path result missing from new run")
	}
	if len(regressions) > 0 {
		sort.Strings(regressions)
		return fmt.Errorf("bench-gate: %d regression(s) beyond %.0f%%:\n  %s",
			len(regressions), threshold*100, joinLines(regressions))
	}
	fmt.Println("bench-gate: no hot-path regressions")
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
