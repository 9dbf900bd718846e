package core

import (
	"fmt"
	"math"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/obs"
)

// depthwiseCases cover the channel-wide grid's edges: channel counts that
// split into full blocks, a tail block and a single narrow block; 1×1,
// 2×2, 3×3, 5×5 and 7×7 filters; padding 0 and beyond the filter
// radius's tiles; batches of 1–3 images; default and forced
// segmentations. The last four are the X̂ ring's edges, each with a
// forced segmentation: an image shorter than the filter (I_H < F_H), top
// padding at least the filter height (P_H ≥ F_H, so the first and last
// output rows read only padding), F_H = 1 (a one-slot ring), and a tall
// unpadded image split into segments of F_H rows and of one row. Their
// forced segmentations start segments at Row0 > 0, except the I_H < F_H
// case: Algorithm 2 never splits fewer than 2·(P_H+1) output rows, and
// O_H = I_H + 2·P_H − F_H + 1 is below that whenever I_H ≤ F_H, so its
// segments split the columns.
var depthwiseCases = []struct {
	name string
	p    conv.Params
	segs []int
}{
	{"3x3_c64", conv.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1, Groups: 64}, []int{0, 3}},
	{"5x5_c37_n2", conv.Params{N: 2, IH: 9, IW: 11, FH: 5, FW: 5, IC: 37, OC: 37, PH: 2, PW: 2, Groups: 37}, []int{0}},
	{"2x2_c20_n3_nopad", conv.Params{N: 3, IH: 10, IW: 9, FH: 2, FW: 2, IC: 20, OC: 20, Groups: 20}, []int{0, 2}},
	{"7x7_c24", conv.Params{N: 1, IH: 12, IW: 13, FH: 7, FW: 7, IC: 24, OC: 24, PH: 3, PW: 3, Groups: 24}, []int{0}},
	{"3x3_c5", conv.Params{N: 2, IH: 7, IW: 8, FH: 3, FW: 3, IC: 5, OC: 5, PH: 1, PW: 1, Groups: 5}, []int{0, 2}},
	{"5x5_c16_n2_ih3", conv.Params{N: 2, IH: 3, IW: 9, FH: 5, FW: 5, IC: 16, OC: 16, PH: 2, PW: 2, Groups: 16}, []int{0, 2}},
	{"3x3_c8_ph3", conv.Params{N: 1, IH: 6, IW: 8, FH: 3, FW: 3, IC: 8, OC: 8, PH: 3, PW: 1, Groups: 8}, []int{0, 3}},
	{"1x1_c16_n3", conv.Params{N: 3, IH: 17, IW: 19, FH: 1, FW: 1, IC: 16, OC: 16, Groups: 16}, []int{0, 20}},
	{"3x3_c24_tall", conv.Params{N: 1, IH: 20, IW: 10, FH: 3, FW: 3, IC: 24, OC: 24, PW: 1, Groups: 24}, []int{0, 8, 16}},
}

// A depthwise plan runs channel-wide, and its gradient must equal the
// sequential per-group reference bit for bit in FP32 and FP16 at pool
// widths 1, 2, 4 and 8 — which set the channel block from 64 down to 8,
// with and without a tail block. The FP16 operands are the codec-stress
// mix (exact zeros, subnormal scale, ±1024), so the zero skip and the
// rounding of both transformed panels are exercised.
func TestDepthwiseChannelWideMatchesPerGroup(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		withTestPool(t, width, func() {
			for _, tc := range depthwiseCases {
				x, dy := poolLayer(t, 91, tc.p)
				xh, dyh := halfLayer(t, 92, tc.p)
				xs, dys := xh.ToFloat32(), dyh.ToFloat32()
				for _, z := range tc.segs {
					opts := []Option{}
					if z > 0 {
						opts = append(opts, WithSegments(z))
					}
					name := fmt.Sprintf("%s/w%d/z%d", tc.name, width, z)
					cfg, err := Configure(tc.p, opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cfg16, err := Configure(tc.p, append(opts, WithFP16())...)
					if err != nil {
						t.Fatalf("%s fp16: %v", name, err)
					}
					if want := channelBlock(tc.p.IC, width); cfg.dwBlock != want || cfg16.dwBlock != want {
						t.Fatalf("%s: channel block %d/%d, want %d", name, cfg.dwBlock, cfg16.dwBlock, want)
					}
					equalBits(t, name+"/fp32", Execute(cfg, x, dy).Data, perGroupRef(cfg, x, dy, false).Data)
					equalBits(t, name+"/fp16", ExecuteHalf(cfg16, xh, dyh).Data, perGroupRef(cfg16, xs, dys, true).Data)
				}
			}
		})
	}
}

// The channel block follows the pool width: ⌊C/W⌋ rounded down to a
// multiple of 8, within [8, 64], and never wider than the layer.
func TestChannelBlockRule(t *testing.T) {
	for _, tc := range []struct{ c, w, want int }{
		{32, 2, 16}, {32, 1, 32}, {32, 4, 8}, {32, 8, 8},
		{128, 2, 64}, {1024, 2, 64}, {256, 2, 64}, {64, 4, 16},
		{37, 2, 16}, {37, 8, 8}, {5, 1, 5}, {5, 4, 5}, {12, 1, 8},
	} {
		if got := channelBlock(tc.c, tc.w); got != tc.want {
			t.Errorf("channelBlock(%d, %d) = %d, want %d", tc.c, tc.w, got, tc.want)
		}
	}
}

// Traced depthwise units record their stages like ungrouped units: one
// segment_tile and one epilogue per unit of the channel-wide grid, one
// reduce per call, and no Ŵ fill — inline and pooled. The X̂ ring fills,
// timed whole, and the sampled tile iterations give non-zero transform
// and EWM shares that, with the epilogue, fit inside segment_tile.
func TestDepthwiseExecuteRecordsStages(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 24, OC: 24, PH: 1, PW: 1, Groups: 24}
	x, dy := poolLayer(t, 93, p)
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			cfg, err := Configure(p, WithSegments(2))
			if err != nil {
				t.Fatal(err)
			}
			units := uint64(cfg.Units())
			obs.ResetTrace()
			Execute(cfg, x, dy)
			snap := obs.TraceSnapshot()
			for _, c := range []struct {
				stage obs.Stage
				want  uint64
			}{
				{obs.StageSegmentTile, units},
				{obs.StageEpilogue, units},
				{obs.StageReduce, 1},
				{obs.StageWHat, 0},
			} {
				if got := snap[c.stage].Count; got != c.want {
					t.Errorf("width %d: %s count = %d, want %d", width, c.stage, got, c.want)
				}
			}
			for _, st := range []obs.Stage{obs.StageTransform, obs.StageEWM} {
				if snap[st].Total <= 0 {
					t.Errorf("width %d: %s total %v, want > 0", width, st, snap[st].Total)
				}
			}
			nested := snap[obs.StageTransform].Total + snap[obs.StageEWM].Total + snap[obs.StageEpilogue].Total
			if tile := snap[obs.StageSegmentTile].Total; nested > tile {
				t.Errorf("width %d: transform+ewm+epilogue %v exceeds segment_tile total %v", width, nested, tile)
			}
		})
	}
}

// seedStaleScratch replaces the tile-scratch free list with buffers
// larger than any ring of these tests, every element NaN, so a unit that
// reads a ring slot (or any scratch) before writing it returns NaN.
func seedStaleScratch() {
	stale := func() []float32 {
		b := make([]float32, 1<<16)
		for i := range b {
			b[i] = float32(math.NaN())
		}
		return b
	}
	scratchFree.Lock()
	clear(scratchFree.list)
	scratchFree.list = scratchFree.list[:0]
	scratchFree.Unlock()
	for i := 0; i < 8; i++ {
		putTileScratch(&tileScratch{v: stale(), wRaw: stale(), wHatF: stale(), xRaw: stale(), xHatF: stale(), acc: stale()})
	}
}

// Depthwise units reuse pooled tile scratch, whose ring holds whatever the
// last unit left: NaN here, or the slots of a plan of another F_H. Two
// plans of different F_H, run back to back on NaN-seeded scratch and then
// again on each other's leftovers, must each equal the per-group
// reference bit for bit in FP32 and FP16.
func TestDepthwiseStaleScratch(t *testing.T) {
	shapes := []conv.Params{
		{N: 2, IH: 11, IW: 13, FH: 5, FW: 5, IC: 24, OC: 24, PH: 2, PW: 2, Groups: 24},
		{N: 1, IH: 14, IW: 9, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16},
	}
	for _, width := range []int{1, 2} {
		withTestPool(t, width, func() {
			for pass := 0; pass < 2; pass++ {
				for i, p := range shapes {
					name := fmt.Sprintf("w%d/pass%d/fh%d", width, pass, p.FH)
					cfg, err := Configure(p, WithSegments(3))
					if err != nil {
						t.Fatal(err)
					}
					cfg16, err := Configure(p, WithSegments(3), WithFP16())
					if err != nil {
						t.Fatal(err)
					}
					x, dy := poolLayer(t, int64(94+i), p)
					xh, dyh := halfLayer(t, int64(96+i), p)
					want := perGroupRef(cfg, x, dy, false).Data
					want16 := perGroupRef(cfg16, xh.ToFloat32(), dyh.ToFloat32(), true).Data
					if pass == 0 {
						seedStaleScratch()
					}
					equalBits(t, name+"/fp32", Execute(cfg, x, dy).Data, want)
					if pass == 0 {
						seedStaleScratch()
					}
					equalBits(t, name+"/fp16", ExecuteHalf(cfg16, xh, dyh).Data, want16)
				}
			}
		})
	}
}
