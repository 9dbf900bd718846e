package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"winrs/internal/conv"
	"winrs/internal/cpufeat"
	"winrs/internal/tensor"
)

// forceBlock sets the test-only O_C block force for the duration of the
// test: every dense plan configured meanwhile runs blocks of
// min(ob, O_C/G) filters. Like forceEWM it is a test-only hook.
func forceBlock(t testing.TB, ob int) {
	t.Helper()
	prev := blockForce
	blockForce = ob
	t.Cleanup(func() { blockForce = prev })
}

// vgg16Blocks is the 13 VGG16 convolutions at N = 1 and a quarter of the
// spatial extent (the vgg16-fp32 benchmark step), with the O_C block and
// unit count of each FP32 plan. Up to conv3_1 the rule splits nothing: a
// plan keeps one unit per (filter row, width tile) of each of its two
// segments, 6 in all. From conv3_2 on, the blocks split the fast segment,
// so the residual units run inside the fast ones (see residMergeable) and
// the count is the fast segment's.
var vgg16Blocks = []struct {
	name       string
	hw, ic, oc int
	ob, units  int
}{
	{"conv1_1", 56, 3, 64, 64, 6}, {"conv1_2", 56, 64, 64, 64, 6},
	{"conv2_1", 28, 64, 128, 128, 6}, {"conv2_2", 28, 128, 128, 128, 6},
	{"conv3_1", 14, 128, 256, 256, 6}, {"conv3_2", 14, 256, 256, 128, 6},
	{"conv3_3", 14, 256, 256, 128, 6}, {"conv4_1", 7, 256, 512, 128, 12},
	{"conv4_2", 7, 512, 512, 64, 24}, {"conv4_3", 7, 512, 512, 64, 24},
	{"conv5_1", 3, 512, 512, 128, 12}, {"conv5_2", 3, 512, 512, 128, 12},
	{"conv5_3", 3, 512, 512, 128, 12},
}

func vgg16Params(hw, ic, oc int) conv.Params {
	return conv.Params{N: 1, IH: hw, IW: hw, FH: 3, FW: 3, IC: ic, OC: oc, PH: 1, PW: 1}
}

// unitAccumulatorBytes is the largest accumulator array of cfg's dense
// units, α·ob·(I_C/G) float32 values.
func unitAccumulatorBytes(cfg *Config) int {
	b := 0
	for _, seg := range cfg.Segments {
		b = max(b, 4*seg.K.Alpha*cfg.unitBlock()*cfg.Params.ICG())
	}
	return b
}

// The O_C block rule: the VGG16 block and unit table, no unit above
// unitAccBytes of accumulators, the same plans at every pool width, and
// no serving key split.
func TestDenseBlockRule(t *testing.T) {
	var blocks [2][]int
	for i, width := range []int{1, 8} {
		withTestPool(t, width, func() {
			for _, l := range vgg16Blocks {
				cfg, err := Configure(vgg16Params(l.hw, l.ic, l.oc))
				if err != nil {
					t.Fatal(err)
				}
				ob, units := cfg.unitBlock(), cfg.Units()
				if ob != l.ob || units != l.units {
					t.Errorf("width %d %s: ob %d, %d units; want ob %d, %d units", width, l.name, ob, units, l.ob, l.units)
				}
				if b := unitAccumulatorBytes(cfg); b > unitAccBytes {
					t.Errorf("%s: %d accumulator bytes per unit, above %d", l.name, b, unitAccBytes)
				}
				if d := cfg.Describe(); d.Units != units || d.ChannelBlock != ob {
					t.Errorf("%s: Describe reports %d units, block %d", l.name, d.Units, d.ChannelBlock)
				}
				blocks[i] = append(blocks[i], ob, units)
			}
		})
	}
	if fmt.Sprint(blocks[0]) != fmt.Sprint(blocks[1]) {
		t.Errorf("blocks and units depend on the pool width: %v at width 1, %v at width 8", blocks[0], blocks[1])
	}

	// The serving keys. serve-hot's dense keys, and the widest corner of
	// serve-churn's key generator (I_C = O_C = 32) for every filter, extent,
	// batch and precision it draws: α_max is set by the kernel pair, which
	// reads only F_W, O_W and the precision, and the accumulators grow with
	// the channels, so no key of the population splits if the corner does
	// not.
	unsplit := func(name string, p conv.Params, half bool) {
		t.Helper()
		var opts []Option
		if half {
			opts = append(opts, WithFP16())
		}
		cfg, err := Configure(p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ob := cfg.unitBlock(); ob != p.OCG() {
			t.Errorf("%s: serving key split into O_C blocks of %d", name, ob)
		}
	}
	unsplit("f32_28x28x32_3x3", conv.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1}, false)
	unsplit("f16_14x14x64_3x3", conv.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}, true)
	unsplit("f32_n2_16x16x8_5x5", conv.Params{N: 2, IH: 16, IW: 16, FH: 5, FW: 5, IC: 8, OC: 8, PH: 2, PW: 2}, false)
	for _, f := range []int{2, 3, 5, 7} {
		for h := 8; h <= 40; h++ {
			for n := 1; n <= 2; n++ {
				p := conv.Params{N: n, IH: h, IW: h, FH: f, FW: f, IC: 32, OC: 32, PH: (f - 1) / 2, PW: (f - 1) / 2}
				unsplit(fmt.Sprintf("churn %v", p), p, false)
				unsplit(fmt.Sprintf("churn %v fp16", p), p, true)
			}
		}
	}
}

// A shape the production rule splits (conv4_1's geometry: 7²×256→512,
// blocks of 128) must equal the same plan run unblocked, bit for bit, in
// FP32 and FP16, inline and through a width-4 pool: blocks repeat the X̂
// work but change no accumulator's terms or their order.
func TestBlockedUnitsMatchUnblocked(t *testing.T) {
	p := vgg16Params(7, 256, 512)
	x, dy := poolLayer(t, 98, p)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg16, err := Configure(p, WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.unitBlock() >= p.OC || cfg16.unitBlock() >= p.OC {
		t.Fatalf("setup: O_C blocks %d and %d do not split %d filters", cfg.unitBlock(), cfg16.unitBlock(), p.OC)
	}
	forceBlock(t, p.OC)
	whole, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	whole16, err := Configure(p, WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	want, want16 := Execute(whole, x, dy), ExecuteHalf(whole16, xh, dyh)
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			name := fmt.Sprintf("width %d", width)
			equalBits(t, name+"/fp32", Execute(cfg, x, dy).Data, want.Data)
			equalBits(t, name+"/fp16", ExecuteHalf(cfg16, xh, dyh).Data, want16.Data)
		})
	}
}

// bitwiseSuites are the bitwise suites the forced-plan tests rerun: each
// pins the production executors against a reference that runs the plan's
// segments separately, or against themselves across pool widths and
// workspaces.
var bitwiseSuites = []struct {
	name string
	run  func(*testing.T)
}{
	{"ExecuteHalfMatchesScalarCodecRef", TestExecuteHalfMatchesScalarCodecRef},
	{"QuantizedMatchesRef", TestQuantizedMatchesRef},
	{"Execute3DMatchesRef", TestExecute3DMatchesRef},
	{"GroupedInterleavedMatchesSequential", TestGroupedInterleavedMatchesSequential},
	{"ExecuteInPoisonedWorkspaceMatchesFresh", TestExecuteInPoisonedWorkspaceMatchesFresh},
	{"PoolMatchesInline2D", TestPoolMatchesInline2D},
	{"PoolMatchesInlineStrided", TestPoolMatchesInlineStrided},
	{"PoolMatchesInline3D", TestPoolMatchesInline3D},
}

// kernelLegs are the kernel paths the forced-plan tests run the suites on:
// the host's, and on an AVX2 or F16C host the Go kernel loops too (the
// _go leg).
func kernelLegs() []string {
	if cpufeat.HasAVX2 || cpufeat.HasF16C {
		return []string{"", "_go"}
	}
	return []string{""}
}

// The bitwise suites again on forced O_C blocks: every dense shape of
// theirs with more than ob filters per group runs ragged blocks, and the
// reference executors, which run whole filter rows, must still match bit
// for bit. ob = 1 gives every filter its own unit. On an AVX2 or F16C
// host the suites run once more on the Go kernel loops (the _go legs).
func TestBitwiseSuitesBlockedUnits(t *testing.T) {
	for _, leg := range kernelLegs() {
		for _, ob := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("ob%d%s", ob, leg), func(t *testing.T) {
				if leg != "" {
					forceGoKernels(t)
				}
				forceBlock(t, ob)
				// The force reaches the plans: 7 filters run ⌈7/ob⌉ blocks,
				// and since the blocks split the fast segment, the rule
				// runs the residual units inside the fast ones.
				p := conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}
				cfg, err := Configure(p)
				if err != nil {
					t.Fatal(err)
				}
				off := unitOffsets(p.FW, p.FH*ceilDiv(p.OC, ob), cfg.Segments)
				if cfg.unitBlock() != ob || !cfg.residMerged || cfg.Units() != off[1] {
					t.Fatalf("forced ob %d: block %d, %d units, merged %v; want %d merged units",
						ob, cfg.unitBlock(), cfg.Units(), cfg.residMerged, off[1])
				}
				for _, s := range bitwiseSuites {
					t.Run(s.name, s.run)
				}
			})
		}
	}
}

// BenchmarkUnitProbe is the unit-time probe of the VGG16 plans: on one
// worker, each layer's whole execution and then each of its units alone
// are timed, best of 9. It logs per layer the units (fast + residual
// segments, or the fast units of a merged plan, each of which runs its
// residual sub-units), the paper's block count, the one-worker time, the
// largest unit's time, the cap — the one-worker time over the largest
// unit, which no pool width can beat — and the accumulator bytes of a
// unit. Run it with -v, which keeps the table whole:
//
//	go test -v -run '^$' -bench '^BenchmarkUnitProbe$' -benchtime 1x ./internal/core
func BenchmarkUnitProbe(b *testing.B) {
	best := func(f func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 9; i++ {
			t0 := time.Now()
			f()
			d = min(d, time.Since(t0))
		}
		return d
	}
	rows := []string{"| layer | units (fast + residual, or merged) | paper blocks | one-worker ms | largest unit ms | cap | accumulators per unit |",
		"|---|---|---|---|---|---|---|"}
	withTestPool(b, 1, func() {
		for _, l := range vgg16Blocks {
			p := vgg16Params(l.hw, l.ic, l.oc)
			cfg, err := Configure(p)
			if err != nil {
				b.Fatal(err)
			}
			x, dy := poolLayer(b, 99, p)
			ws, dst := NewWorkspace(cfg), tensor.NewFloat32(p.DWShape())
			layer := best(func() { ExecuteIn(cfg, ws, x, dy, dst) })

			// The unit grid as execute sets it up, on a filled Ŵ cache.
			ws.bindPlans(cfg, fp32Storage)
			ws.job = execJob{cfg: cfg, ws: ws, st: fp32Storage, x: x.Data, dy: dy.Data,
				ops: planar(p, x.Shape, dy.Shape, operand{f32: x.Data}, operand{f32: dy.Data}, "probe")}
			ws.buckets[0] = dst.Data
			growF32(&ws.what32, cfg.whatOff[len(cfg.whatOff)-1])
			ws.job.fillRows(0, cfg.rowOff[len(cfg.rowOff)-1])
			var largest time.Duration
			var fast, resid int
			for si, seg := range cfg.Segments {
				for i := cfg.unitOff[si]; i < cfg.unitOff[si+1]; i++ {
					largest = max(largest, best(func() { ws.job.units(i, i+1) }))
				}
				if n := cfg.unitOff[si+1] - cfg.unitOff[si]; seg.K == cfg.Pair.Fast {
					fast += n
				} else {
					resid += n
				}
			}
			ws.job, ws.buckets[0] = execJob{}, nil
			units := fmt.Sprintf("%d + %d", fast, resid)
			if cfg.residMerged {
				units = fmt.Sprintf("%d merged", fast)
			}
			rows = append(rows, fmt.Sprintf("| %s | %s | %d | %.2f | %.2f | %.1f× | %.3g MiB |",
				l.name, units, cfg.Describe().TotalBlocks, layer.Seconds()*1e3, largest.Seconds()*1e3,
				float64(layer)/float64(largest), float64(unitAccumulatorBytes(cfg))/(1<<20)))
		}
	})
	b.Log("\n" + strings.Join(rows, "\n"))
}
