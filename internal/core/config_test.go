package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/winograd"
)

func layer(n, hw, f, c int) conv.Params {
	return conv.Params{N: n, IH: hw, IW: hw, FH: f, FW: f, IC: c, OC: c,
		PH: f / 2, PW: f / 2}
}

// Figure 3/5: F_W=3, O_W=16 selects Ω8(3,6) for 12 columns and Ω4(3,2) for
// the remaining 4.
func TestSelectPairPaperExample(t *testing.T) {
	p := conv.Params{N: 32, IH: 16, IW: 18, FH: 3, FW: 3, IC: 64, OC: 64, PH: 0, PW: 0}
	if p.OW() != 16 {
		t.Fatalf("setup: OW = %d, want 16", p.OW())
	}
	pr, err := SelectPair(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Fast.String() != "Omega8(3,6)" || pr.Resid.String() != "Omega4(3,2)" {
		t.Errorf("pair = %v, want Omega8(3,6)+Omega4(3,2)", pr)
	}
	fastW, residW := pr.Coverage()
	if fastW != 12 || residW != 4 {
		t.Errorf("coverage = %d+%d, want 12+4", fastW, residW)
	}
}

// Every supported F_W (multiples of 2..9) with a range of O_W values must
// yield a pair that exactly tiles O_W with divisor-of-F_W output tiles.
func TestSelectPairInvariants(t *testing.T) {
	for _, fw := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 18, 27} {
		for ow := 2; ow <= 64; ow++ {
			p := conv.Params{N: 1, IH: 8, IW: fw + ow - 1, FH: 3, FW: fw,
				IC: 8, OC: 8}
			if p.Validate() != nil {
				continue
			}
			pr, err := SelectPair(p, false)
			if err != nil {
				t.Errorf("F_W=%d O_W=%d: %v", fw, ow, err)
				continue
			}
			if fw%pr.Fast.N != 0 {
				t.Errorf("F_W=%d O_W=%d: pair %v fast n does not divide F_W", fw, ow, pr)
			}
			if pr.ResidUnits > 0 && fw%pr.Resid.N != 0 {
				t.Errorf("F_W=%d O_W=%d: pair %v resid n does not divide F_W", fw, ow, pr)
			}
			fastW, residW := pr.Coverage()
			if fastW+residW != ow {
				t.Errorf("F_W=%d O_W=%d: pair %v covers %d", fw, ow, pr, fastW+residW)
			}
		}
	}
}

func TestSelectPairFP16RestrictsToPortedKernels(t *testing.T) {
	p := conv.Params{N: 32, IH: 16, IW: 20, FH: 3, FW: 3, IC: 64, OC: 64}
	// OW = 18 = 3·6: the FP16 set {r=6, r=2 with n=3} tiles it.
	pr, err := SelectPair(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Fast.FP16 || (pr.ResidUnits > 0 && !pr.Resid.FP16) {
		t.Errorf("FP16 selection returned non-FP16 kernel: %v", pr)
	}
}

// When the FP16 subset cannot tile O_W (odd widths with only even r
// available for n=3), selection must fall back to the full registry.
func TestSelectPairFP16Fallback(t *testing.T) {
	p := conv.Params{N: 1, IH: 8, IW: 9, FH: 3, FW: 3, IC: 8, OC: 8}
	if p.OW()%2 == 0 {
		t.Fatalf("setup: OW = %d should be odd", p.OW())
	}
	pr, err := SelectPair(p, true)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	fastW, residW := pr.Coverage()
	if fastW+residW != p.OW() {
		t.Errorf("fallback pair %v covers %d, want %d", pr, fastW+residW, p.OW())
	}
}

func TestSelectPairDirectFallback(t *testing.T) {
	// O_W = 1 is below every registry r: covered by one direct unit.
	p := conv.Params{N: 1, IH: 3, IW: 3, FH: 3, FW: 3, IC: 1, OC: 1}
	if p.OW() != 1 {
		t.Fatalf("setup: OW = %d", p.OW())
	}
	pr, err := SelectPair(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Fast.N != 1 || pr.Fast.R != 1 || pr.FastUnits != 1 {
		t.Errorf("pair = %+v, want single direct F(1,1) unit", pr)
	}
}

// Algorithm 1, Figure 9 behaviour: with large channels a single segment
// saturates the device (Z = 1, zero workspace); shrinking channels raises
// the segment count. The ladder follows the paper's constant-complexity
// rule (channels doubled when feature maps halve).
func TestEstimateZChannelTrend(t *testing.T) {
	hw := DefaultHardware
	zOf := func(hwDim, c int) int {
		p := layer(32, hwDim, 3, c)
		pr, err := SelectPair(p, false)
		if err != nil {
			t.Fatal(err)
		}
		return EstimateZ(p, pr, hw, false)
	}
	ladder := [][2]int{{224, 64}, {112, 128}, {56, 256}, {28, 512}, {14, 1024}}
	zs := make([]int, len(ladder))
	for i, hc := range ladder {
		zs[i] = zOf(hc[0], hc[1])
	}
	for i := 1; i < len(zs); i++ {
		if zs[i] > zs[i-1] {
			t.Errorf("segment counts not non-increasing with channel growth: %v", zs)
			break
		}
	}
	if zs[0] < 8 {
		t.Errorf("64 channels @224: Z = %d, expected substantial segmentation", zs[0])
	}
	if zs[len(zs)-1] != 1 {
		t.Errorf("1024 channels @14: Z = %d, want 1 (paper Fig 9)", zs[len(zs)-1])
	}
}

func TestEstimateZRespectsWorkloadFloor(t *testing.T) {
	// A tiny workload must not fragment into many segments.
	p := layer(1, 16, 3, 8)
	pr, err := SelectPair(p, false)
	if err != nil {
		t.Fatal(err)
	}
	z := EstimateZ(p, pr, DefaultHardware, false)
	if z > 2 {
		t.Errorf("tiny workload Z = %d, want <= 2", z)
	}
}

func TestBlocksPerSegment(t *testing.T) {
	p := layer(32, 224, 3, 64)
	k := mustKernel(t, 3, 6)
	// FP32 cache block 64×32: 1·2·3 = 6 blocks (⌈9/3⌉ = 3 width tiles).
	if got := BlocksPerSegment(k, p, false); got != 6 {
		t.Errorf("BlocksPerSegment = %d, want 6", got)
	}
}

func TestSegmentShapeInvariants(t *testing.T) {
	for _, c := range []struct {
		p    conv.Params
		zHat int
	}{
		{layer(32, 224, 3, 64), 16},
		{layer(32, 112, 5, 128), 8},
		{layer(8, 56, 7, 256), 4},
		{layer(1, 16, 3, 8), 1},
		{layer(4, 64, 9, 64), 32},
		{layer(2, 33, 3, 16), 6}, // odd output width
	} {
		pr, err := SelectPair(c.p, false)
		if err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		sh, sw := SegmentShape(c.p, pr, c.zHat)
		if sh < 1 || sh > c.p.OH() {
			t.Errorf("%v zHat=%d: SH=%d outside [1,%d]", c.p, c.zHat, sh, c.p.OH())
		}
		if sw < pr.Fast.R || sw%pr.Fast.R != 0 {
			t.Errorf("%v zHat=%d: SW=%d not a positive multiple of r0=%d",
				c.p, c.zHat, sw, pr.Fast.R)
		}
		if sh <= c.p.PH && c.p.OH() > c.p.PH {
			t.Errorf("%v zHat=%d: SH=%d does not exceed padding %d", c.p, c.zHat, sh, c.p.PH)
		}
	}
}

// The realized segment layout must partition ∇Y exactly: disjoint cover of
// [0,O_H)×[0,O_W), each segment's width a multiple of its kernel's r.
func TestLayoutSegmentsPartition(t *testing.T) {
	for _, p := range []conv.Params{
		layer(32, 224, 3, 64),
		layer(32, 112, 5, 128),
		layer(16, 56, 4, 256),
		layer(2, 33, 3, 16),
		layer(1, 17, 2, 8),
		layer(4, 64, 9, 64),
	} {
		for _, forceZ := range []int{0, 1, 4, 17, 64} {
			opts := []Option{}
			if forceZ > 0 {
				opts = append(opts, WithSegments(forceZ))
			}
			cfg, err := Configure(p, opts...)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			covered := make([]int, p.OH()*p.OW())
			for _, s := range cfg.Segments {
				if s.Cols()%s.K.R != 0 {
					t.Errorf("%v: segment width %d not multiple of r=%d", p, s.Cols(), s.K.R)
				}
				if s.Rows() < 1 {
					t.Errorf("%v: empty segment rows", p)
				}
				for y := s.Row0; y < s.Row1; y++ {
					for x := s.Col0; x < s.Col1; x++ {
						covered[y*p.OW()+x]++
					}
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("%v forceZ=%d: cell %d covered %d times", p, forceZ, i, c)
				}
			}
			// A merged plan realizes Z = 2 on one bucket.
			buckets := cfg.Z()
			if cfg.residMerged && cfg.Z() == 2 {
				buckets = 1
			}
			if cfg.Buckets() != buckets || cfg.WorkspaceBytes() != int64(buckets-1)*int64(p.DWShape().Elems())*4 {
				t.Errorf("%v: workspace accounting mismatch", p)
			}
		}
	}
}

// Large channels on the paper's Figure 9 sweep must produce Z = 1 and hence
// zero workspace. O_W is kept a multiple of the fast r so no residual
// column forces a second segment.
func TestConfigureZeroWorkspaceAtLargeChannels(t *testing.T) {
	p := conv.Params{N: 32, IH: 14, IW: 12, FH: 3, FW: 3, IC: 1024, OC: 1024,
		PH: 1, PW: 1} // OW = 12, a multiple of 6
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Z() != 1 || cfg.WorkspaceBytes() != 0 {
		t.Errorf("Z = %d, workspace = %d; want 1 segment, 0 bytes (pair %v, target %d)",
			cfg.Z(), cfg.WorkspaceBytes(), cfg.Pair, cfg.ZTarget)
	}
}

func TestConfigureRejectsInvalid(t *testing.T) {
	if _, err := Configure(conv.Params{}); err == nil {
		t.Error("expected error for zero params")
	}
}

func mustKernel(t *testing.T, n, r int) winograd.Kernel {
	t.Helper()
	k, ok := winograd.Lookup(n, r)
	if !ok {
		t.Fatalf("kernel (%d,%d) missing", n, r)
	}
	return k
}

// A grouped plan does not depend on the pool width: the same call
// realizes the same segments and workspace at widths 1 and 8.
func TestGroupedPlanIndependentOfPoolWidth(t *testing.T) {
	p := conv.Params{N: 8, IH: 64, IW: 66, FH: 3, FW: 3, IC: 64, OC: 64,
		PH: 1, PW: 1, Groups: 4}
	var segs [2][]Segment
	var ws [2]int64
	for i, width := range []int{1, 8} {
		withTestPool(t, width, func() {
			cfg, err := Configure(p, WithSegments(8))
			if err != nil {
				t.Fatal(err)
			}
			segs[i], ws[i] = cfg.Segments, cfg.WorkspaceBytes()
		})
	}
	if !reflect.DeepEqual(segs[0], segs[1]) || ws[0] != ws[1] {
		t.Errorf("width 1: Z=%d, %d B; width 8: Z=%d, %d B — want the same plan",
			len(segs[0]), ws[0], len(segs[1]), ws[1])
	}
	if len(segs[0]) < 2 {
		t.Errorf("Z=%d under WithSegments(8); want a segmented plan", len(segs[0]))
	}
}

// Inequality (5) of §4.3: when O_W is not a multiple of the segment width,
// shrinking S_W reduces the total segment count Z (boundary redundancy).
// Verify the realized layout follows the monotonicity the paper derives.
func TestSegmentWidthInequality5(t *testing.T) {
	p := conv.Params{N: 8, IH: 46, IW: 46, FH: 3, FW: 3, IC: 16, OC: 16,
		PH: 1, PW: 1} // OW = 46: not a multiple of 12 (2 fast units)
	pr, err := SelectPair(p, false)
	if err != nil {
		t.Fatal(err)
	}
	r0 := pr.Fast.R
	count := func(sw int) int {
		return len(layoutSegments(p, pr, p.OH(), sw))
	}
	// With a fixed single row chunk, the column count (hence Z) must be
	// non-increasing as S_W grows, and minimal S_W = r0 maximizes Z.
	prev := count(r0)
	for sw := 2 * r0; sw <= 6*r0; sw += r0 {
		cur := count(sw)
		if cur > prev {
			t.Errorf("S_W=%d produced more segments (%d) than S_W=%d (%d)",
				sw, cur, sw-r0, prev)
		}
		prev = cur
	}
}

func TestDescribeAndJSON(t *testing.T) {
	p := conv.Params{N: 32, IH: 224, IW: 224, FH: 3, FW: 3, IC: 64, OC: 64,
		PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Describe()
	if d.KernelPair != cfg.Pair.String() || d.Segments != cfg.Z() {
		t.Errorf("description mismatch: %+v", d)
	}
	if d.Layer.OH != 224 || d.Layer.DirectGFLOPs < 100 {
		t.Errorf("layer summary wrong: %+v", d.Layer)
	}
	if d.WorkspaceBytes != cfg.WorkspaceBytes() || d.TotalBlocks < cfg.Z() {
		t.Errorf("accounting wrong: %+v", d)
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Description
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.KernelPair != d.KernelPair || back.Segments != d.Segments {
		t.Errorf("JSON round trip mismatch: %+v", back)
	}
}

// Algorithm 1 line 3: when one segment already provides enough blocks for
// full utilization and the FC/BDC budget is small, the estimate must short-
// circuit to Z = 1 without padding games.
func TestEstimateZLine3EarlyExit(t *testing.T) {
	// Huge channels, tiny maps: b2 is enormous, zHat below 2.
	p := conv.Params{N: 8, IH: 8, IW: 8, FH: 3, FW: 3, IC: 1024, OC: 1024,
		PH: 1, PW: 1}
	pr, err := SelectPair(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if b2 := BlocksPerSegment(pr.Fast, p, false); b2 < 512 {
		t.Fatalf("setup: b2 = %d too small for the early-exit regime", b2)
	}
	if z := EstimateZ(p, pr, DefaultHardware, false); z != 1 {
		t.Errorf("Z = %d, want 1 (line 3 early exit)", z)
	}
}
