package backend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"winrs/internal/conv"
)

// benchGridShapes mirrors cmd/winrs-bench's fixed regression grid — the
// shapes the acceptance criterion ("dispatch within 10% of the best
// measured backend") is judged on.
var benchGridShapes = []conv.Params{
	{N: 1, IH: 32, IW: 32, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1},
	{N: 2, IH: 16, IW: 16, FH: 5, FW: 5, IC: 4, OC: 4},
	{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1},
}

func TestPredictNsScalesWithGrains(t *testing.T) {
	serial := Cost{FLOPs: 1e9, Eff: 0.5, Grains: 1}
	if p1, p4 := PredictNs(serial, 1), PredictNs(serial, 4); p1 != p4 {
		t.Errorf("Grains=1: PredictNs(1)=%g != PredictNs(4)=%g", p1, p4)
	}
	wide := Cost{FLOPs: 1e9, Eff: 0.5, Grains: 64}
	if p1, p4 := PredictNs(wide, 1), PredictNs(wide, 4); p4 >= p1 {
		t.Errorf("Grains=64: PredictNs(4)=%g not below PredictNs(1)=%g", p4, p1)
	}
	withMem := Cost{FLOPs: 1e9, Bytes: 6e9, Eff: 0.5, Grains: 64}
	if d := PredictNs(withMem, 4) - PredictNs(wide, 4); d < 0.9e9 {
		t.Errorf("traffic term added %g ns, want ~1e9", d)
	}
}

func TestRankingSortedAndEligible(t *testing.T) {
	reg := Default()
	for _, p := range benchGridShapes {
		cands := reg.Ranking(p, FP32, 4)
		if len(cands) == 0 {
			t.Fatalf("no candidates for %v", p)
		}
		for i := 1; i < len(cands); i++ {
			if cands[i].PredictedNs < cands[i-1].PredictedNs {
				t.Errorf("%v: ranking not sorted: %v", p, cands)
			}
		}
		for _, c := range cands {
			b, ok := reg.Get(c.Name)
			if !ok || !b.Supports(p, FP32) {
				t.Errorf("%v: ineligible candidate %q", p, c.Name)
			}
		}
	}
	// FP16 rankings must exclude the FFT backend.
	for _, c := range reg.Ranking(p3x3, FP16, 4) {
		if c.Name == "fft" {
			t.Error("fft ranked at FP16")
		}
	}
}

func TestDispatchPredictionOnly(t *testing.T) {
	d, err := Default().Dispatch(p3x3, FP32, Options{Measure: false})
	if err != nil {
		t.Fatal(err)
	}
	if d.Measured {
		t.Error("Measured set without refinement")
	}
	if len(d.Candidates) == 0 || d.Backend != d.Candidates[0].Name {
		t.Errorf("prediction-only choice %q != best-predicted %v", d.Backend, d.Candidates)
	}
	for _, c := range d.Candidates {
		if c.MeasuredNs != 0 {
			t.Errorf("candidate %q measured without refinement", c.Name)
		}
	}
}

func TestDispatchMeasuredRefinement(t *testing.T) {
	d, err := Default().Dispatch(p3x3, FP32, Options{Measure: true, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Measured {
		t.Fatal("refinement did not run on a tiny shape")
	}
	measured := 0
	bestNs := 0.0
	for _, c := range d.Candidates {
		if c.MeasuredNs > 0 {
			measured++
			if bestNs == 0 || c.MeasuredNs < bestNs {
				bestNs = c.MeasuredNs
			}
		}
	}
	if measured != 2 {
		t.Errorf("measured %d candidates, want 2", measured)
	}
	for _, c := range d.Candidates {
		if c.Name == d.Backend && c.MeasuredNs != bestNs {
			t.Errorf("chose %q at %g ns, but best measured is %g", d.Backend, c.MeasuredNs, bestNs)
		}
	}
}

func TestDispatchMeasureBound(t *testing.T) {
	d, err := Default().Dispatch(p3x3, FP32, Options{Measure: true, MaxMeasureFLOPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Measured {
		t.Error("refinement ran above the FLOP bound")
	}
}

func TestDispatchInvalidParams(t *testing.T) {
	if _, err := Default().Dispatch(conv.Params{}, FP32, Options{}); err == nil {
		t.Error("invalid geometry dispatched")
	}
}

// TestDispatchWithinBest is the acceptance check behind the cost-model
// calibration: on every bench-grid shape, the dispatched backend's own
// measured time must be close to the fastest of ALL eligible backends
// (each timed best-of-3 here). The 10% criterion is asserted at 2× to
// absorb shared-CI timer noise, with retries so a single descheduled run
// cannot flake the suite; the tight 10% figure is recorded per row in the
// winrs-bench JSON where measurement is min-of-batches.
func TestDispatchWithinBest(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	reg := Default()
	for _, p := range benchGridShapes {
		p := p
		t.Run(shapeName(p), func(t *testing.T) {
			const attempts = 3
			var lastMsg string
			for a := 0; a < attempts; a++ {
				best, times := measureEligible(t, reg, p)
				d, err := reg.Dispatch(p, FP32, Options{Measure: true})
				if err != nil {
					t.Fatal(err)
				}
				chosen := times[d.Backend]
				if chosen <= 2.0*best {
					return
				}
				lastMsg = formatGap(d.Backend, chosen, best, times)
			}
			t.Error(lastMsg)
		})
	}
}

func shapeName(p conv.Params) string {
	return fmt.Sprintf("N%d_I%dx%d_F%dx%d_C%dx%d", p.N, p.IH, p.IW, p.FH, p.FW, p.IC, p.OC)
}

// measureEligible times every eligible backend best-of-3 on synthetic
// operands and returns the fastest time plus the per-backend map.
func measureEligible(t *testing.T, reg *Registry, p conv.Params) (best float64, times map[string]float64) {
	t.Helper()
	x, dy, dst, _, _ := synthOperands(p, FP32)
	times = map[string]float64{}
	for _, b := range reg.Eligible(p, FP32) {
		var min float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			err := b.ExecuteCtx(context.Background(), p, x, dy, dst)
			d := time.Since(start)
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			if ns := float64(d.Nanoseconds()); min == 0 || ns < min {
				min = ns
			}
		}
		times[b.Name()] = min
		if best == 0 || min < best {
			best = min
		}
	}
	return best, times
}

func formatGap(chosen string, chosenNs, bestNs float64, times map[string]float64) string {
	msg := fmt.Sprintf("dispatched %s is %.2fx the best measured backend:", chosen, chosenNs/bestNs)
	for name, ns := range times {
		msg += fmt.Sprintf(" %s=%.0fus", name, ns/1000)
	}
	return msg
}
