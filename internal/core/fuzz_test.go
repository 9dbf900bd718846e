package core

import (
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// FuzzConfigurePartition feeds arbitrary layer geometries through
// configuration adaptation and checks the structural invariants: the
// segment grid tiles the output plane exactly, every segment width is a
// multiple of its kernel's unit width, and the workspace accounting holds.
func FuzzConfigurePartition(f *testing.F) {
	f.Add(uint8(32), uint8(32), uint8(3), uint8(3), uint8(16), uint8(1), uint8(0))
	f.Add(uint8(224), uint8(224), uint8(3), uint8(3), uint8(64), uint8(1), uint8(0))
	f.Add(uint8(17), uint8(33), uint8(7), uint8(5), uint8(8), uint8(2), uint8(12))
	f.Add(uint8(14), uint8(12), uint8(9), uint8(9), uint8(4), uint8(4), uint8(64))
	f.Fuzz(func(t *testing.T, ihB, iwB, fhB, fwB, cB, padB, forceZB uint8) {
		p := conv.Params{
			N:  1 + int(ihB%4),
			IH: 3 + int(ihB%60),
			IW: 3 + int(iwB%60),
			FH: 1 + int(fhB%10),
			FW: 1 + int(fwB%10),
			IC: 1 + int(cB%32),
			OC: 1 + int(cB%16),
			PH: int(padB % 4),
			PW: int(padB>>2) % 4,
		}
		if p.Validate() != nil {
			return
		}
		opts := []Option{}
		if forceZB > 0 {
			opts = append(opts, WithSegments(int(forceZB)))
		}
		cfg, err := Configure(p, opts...)
		if err != nil {
			// Only degenerate widths may fail, and the direct fallback
			// covers any O_W in [1, 20]; O_W ≥ 1 always holds here.
			t.Fatalf("Configure(%v) failed: %v", p, err)
		}
		covered := make([]int, p.OH()*p.OW())
		for _, s := range cfg.Segments {
			if s.Rows() < 1 || s.Cols() < 1 {
				t.Fatalf("%v: empty segment %+v", p, s)
			}
			if s.Cols()%s.K.R != 0 {
				t.Fatalf("%v: segment width %d not multiple of r=%d", p, s.Cols(), s.K.R)
			}
			if p.FW%s.K.N != 0 {
				t.Fatalf("%v: kernel n=%d does not divide F_W=%d", p, s.K.N, p.FW)
			}
			for y := s.Row0; y < s.Row1; y++ {
				for x := s.Col0; x < s.Col1; x++ {
					covered[y*p.OW()+x]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%v: cell %d covered %d times", p, i, c)
			}
		}
		// A merged plan realizes Z = 2 on one bucket.
		buckets := cfg.Z()
		if cfg.residMerged && cfg.Z() == 2 {
			buckets = 1
		}
		if cfg.Buckets() != buckets || cfg.WorkspaceBytes() != int64(buckets-1)*int64(p.DWShape().Elems())*4 {
			t.Fatalf("%v: workspace accounting mismatch", p)
		}
	})
}

// FuzzExecuteMatchesDirect runs the full numeric pipeline on small fuzzed
// geometries against the float64 reference.
func FuzzExecuteMatchesDirect(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(1))
	f.Add(int64(7), uint8(16), uint8(5), uint8(2))
	f.Add(int64(42), uint8(13), uint8(2), uint8(0))
	// IH=IW=8, F=3, pad 1 → OW=8 pairs Ω8(3,6)+Ω4(3,2): both α ≤ 8, so
	// this seed drives the small-α chunk loop.
	f.Add(int64(8), uint8(16), uint8(2), uint8(1))
	// fB ≥ 32 flips the group bit: G=2 with IC=OC=2 is the depthwise
	// grouped pipeline (per-group planning, channel-sliced operands).
	f.Add(int64(5), uint8(12), uint8(35), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, hwB, fB, padB uint8) {
		p := conv.Params{
			N:  1,
			IH: 6 + int(hwB%14),
			IW: 6 + int(hwB%14),
			FH: 1 + int(fB%6),
			FW: 1 + int(fB%6),
			IC: 2, OC: 2,
			PH: int(padB % 3), PW: int(padB % 3),
			// The filter byte's unused high bits select grouping, so the
			// existing corpus keeps its meaning (high bits were zero).
			Groups: 1 + int(fB>>5)%2,
		}
		if p.Validate() != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		for i := range x64.Data {
			x64.Data[i] = rng.Float64()
		}
		for i := range dy64.Data {
			dy64.Data[i] = rng.Float64()
		}
		want := conv.BackwardFilterDirect64(p, x64, dy64)
		got, err := BackwardFilter(p, x64.ToFloat32(), dy64.ToFloat32())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		tol := 1e-5
		if p.FW >= 6 {
			tol = 5e-4
		}
		if m := tensor.MARE(got, want); m > tol {
			t.Fatalf("%v: MARE %v", p, m)
		}
	})
}
