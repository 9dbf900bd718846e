package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"winrs"
	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// libLayer is one layer of a library workload: its plan and seeded
// operands, FP32 or binary16-resident.
type libLayer struct {
	g       geom
	plan    *winrs.Plan
	x, dy   *winrs.Tensor
	xh, dyh *winrs.HalfTensor
}

// newLibLayers draws every layer's operands, uniform in [0,1), from the
// run's operand stream.
func newLibLayers(gs []geom, seed int64) []*libLayer {
	rng := seeded(seed, streamOperands)
	ls := make([]*libLayer, len(gs))
	for i, g := range gs {
		x, dy := winrs.NewTensor(g.p.XShape()), winrs.NewTensor(g.p.DYShape())
		x.FillUniform(rng, 0, 1)
		dy.FillUniform(rng, 0, 1)
		l := &libLayer{g: g}
		if g.fp16 {
			l.xh, l.dyh = x.ToHalf(), dy.ToHalf()
		} else {
			l.x, l.dy = x, dy
		}
		ls[i] = l
	}
	return ls
}

func planOpts(g geom) []winrs.PlanOption {
	if g.fp16 {
		return []winrs.PlanOption{winrs.WithFP16()}
	}
	return nil
}

func (l *libLayer) exec() *winrs.Tensor {
	if l.g.fp16 {
		return l.plan.ExecuteHalf(l.xh, l.dyh)
	}
	return l.plan.Execute(l.x, l.dy)
}

// setupLibrary is what a training framework pays before its first timed
// step: NewPlan for every layer, then one warm-up step (which also fills
// the plans' workspace pools).
func setupLibrary(ls []*libLayer) (time.Duration, error) {
	t0 := time.Now()
	for _, l := range ls {
		pl, err := winrs.NewPlan(l.g.p, planOpts(l.g)...)
		if err != nil {
			return 0, fmt.Errorf("NewPlan %s: %w", l.g.name, err)
		}
		l.plan = pl
	}
	for _, l := range ls {
		l.exec()
	}
	return time.Since(t0), nil
}

// step runs one BFC pass over the layers into out. With a tracer it records
// a root span named root and one child per layer call.
func step(ls []*libLayer, out []*winrs.Tensor, tr *tracer, root string, op int) time.Duration {
	t0 := time.Now()
	if tr == nil {
		for i, l := range ls {
			out[i] = l.exec()
		}
		return time.Since(t0)
	}
	type call struct{ a, b time.Time }
	calls := make([]call, len(ls))
	for i, l := range ls {
		a := time.Now()
		out[i] = l.exec()
		calls[i] = call{a, time.Now()}
	}
	t1 := time.Now()
	id := tr.add(0, op, root, t0, t1)
	for i, c := range calls {
		tr.add(id, op, "winrs.exec."+ls[i].g.name, c.a, c.b)
	}
	return t1.Sub(t0)
}

// libRun is the outcome of a library workload's timed phase.
type libRun struct {
	stepMS    []float64 // wall time of each step, ms
	traced    []bool    // whether the step was traced
	gapsMS    []float64 // caller gap between steps, ms
	untraced  int       // untraced steps
	attempted int64
	failed    int64
	rssMB     float64
	mareMax   float64
}

// runLibraryTimed runs the closed loop: one caller, step after step, until
// the time budget is spent and at least minSteps steps have run (capped at
// twice the budget). In a traced run a seeded coin picks
// which steps are traced, so traced and untraced steps interleave under the
// same conditions without lining up with periodic work such as GC cycles. Each step's results must hash identically to the first
// step's (the executor is scheduling-independent), and the last step's
// results are checked against the float64 direct oracle.
func runLibraryTimed(ls []*libLayer, seed int64, budget time.Duration, minSteps int, tr *tracer) (libRun, error) {
	var r libRun
	out := make([]*winrs.Tensor, len(ls))
	ref := make([]uint64, len(ls))
	wrong := make([]int64, len(ls))
	start := time.Now()
	lastEnd := time.Now()
	for n := 0; ; n++ {
		enough := time.Since(start) >= budget && len(r.stepMS) >= minSteps
		if enough || time.Since(start) >= 2*budget && r.untraced > 0 {
			break
		}
		var t *tracer
		if tr != nil && traced(seed, n) {
			t = tr
		} else {
			r.untraced++
		}
		r.gapsMS = append(r.gapsMS, ms(time.Since(lastEnd)))
		r.stepMS = append(r.stepMS, ms(step(ls, out, t, "step", n)))
		r.traced = append(r.traced, t != nil)
		for i, o := range out {
			h := hashF32(o.Data)
			if n == 0 {
				ref[i] = h
			} else if h != ref[i] {
				wrong[i]++
			}
		}
		lastEnd = time.Now()
	}
	steps := int64(len(r.stepMS))
	r.attempted = steps * int64(len(ls))
	rss, err := vmHWM(0)
	if err != nil {
		return r, err
	}
	r.rssMB = rss

	checks := checkLayers(ls, out)
	for i, c := range checks {
		if c.err != nil {
			fmt.Fprintf(os.Stderr, "# check FAIL %s: %v\n", ls[i].g.name, c.err)
			r.failed += steps
			continue
		}
		if wrong[i] > 0 {
			fmt.Fprintf(os.Stderr, "# check FAIL %s: %d steps differ bitwise from the first\n", ls[i].g.name, wrong[i])
		}
		r.failed += wrong[i]
		r.mareMax = math.Max(r.mareMax, c.mare)
	}
	return r, nil
}

// hashF32 folds the bit patterns of vs into a 64-bit multiplicative hash.
func hashF32(vs []float32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range vs {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

type layerCheck struct {
	mare float64
	err  error
}

// checkLayers compares every result with conv.BackwardFilterDirect64 on the
// same operands (binary16 operands widened exactly), on at most nproc
// goroutines.
func checkLayers(ls []*libLayer, out []*winrs.Tensor) []layerCheck {
	res := make([]layerCheck, len(ls))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				l := ls[i]
				x, dy := l.x, l.dy
				if l.g.fp16 {
					x, dy = l.xh.ToFloat32(), l.dyh.ToFloat32()
				}
				res[i].mare, res[i].err = checkOracle(l.g, out[i], x, dy)
			}
		}()
	}
	for i := range ls {
		next <- i
	}
	close(next)
	wg.Wait()
	return res
}

// Unit roundoff of the two storage precisions.
const (
	eps32 = 5.96e-8 // 2^-24
	eps16 = 4.88e-4 // 2^-11
)

// errBound is the eq. (7) error model of the repository's differential
// suites with boundHeadroom: with inputs in [0,1), one gradient element
// accumulates L = N·O_H·O_W products, so a rounded path errs by at most
// κ·L·ε, κ = 16 doubling per filter-width step beyond 3.
func errBound(g geom) float64 {
	k := 16.0
	for r := g.p.FW; r > 3; r-- {
		k *= 2
	}
	eps := eps32
	if g.fp16 {
		eps = eps16
	}
	return boundHeadroom * k * float64(g.p.N*g.p.OH()*g.p.OW()) * eps
}

// boundHeadroom widens the differential suites' model, calibrated on their
// small test grid, for the benchmark's geometries: FP32 5×5 layers on the
// Ω16(5,12) kernel with small outputs (e.g. N1 14×14×23, OC 27) reach 1.33×
// the plain model. A broken transform is orders of magnitude out and still
// fails.
const boundHeadroom = 4

// checkOracle holds got to the float64 direct oracle under the eq. (7)
// bound and returns its MARE.
func checkOracle(g geom, got, x, dy *tensor.Float32) (float64, error) {
	ref := conv.BackwardFilterDirect64(g.p, x.ToFloat64(), dy.ToFloat64())
	if got.Shape != ref.Shape {
		return 0, fmt.Errorf("shape %v, want %v", got.Shape, ref.Shape)
	}
	bound := errBound(g)
	for i, want := range ref.Data {
		if e := math.Abs(float64(got.Data[i]) - want); !(e <= bound) {
			return 0, fmt.Errorf("element %d: %g vs oracle %g exceeds the eq. (7) bound %.3g", i, got.Data[i], want, bound)
		}
	}
	return tensor.MARE(got, ref), nil
}

// workspaceBytes returns the largest plan footprint over gs — bucket
// workspace plus Ŵ cache, the paper's headline quantity — and its two
// parts at that maximum.
func workspaceBytes(gs []geom) (total, ws, what int64, err error) {
	for _, g := range gs {
		pl, err := winrs.NewPlan(g.p, planOpts(g)...)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("NewPlan %s: %w", g.name, err)
		}
		if t := pl.WorkspaceBytes() + pl.WHatCacheBytes(); t > total {
			total, ws, what = t, pl.WorkspaceBytes(), pl.WHatCacheBytes()
		}
	}
	return total, ws, what, nil
}
