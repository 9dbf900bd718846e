package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/cpufeat"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Execute runs the configured FP32 WinRS plan: a pre-pass gathers and
// transforms every ∇Y unit once into the workspace's Ŵ cache, every
// segment then executes the fused Ω_α(n,r) kernel into its own ∇W bucket,
// and the buckets are reduced with Kahan summation. Work units
// (segment × f_h × width-tile) schedule onto the persistent sched pool
// the way block groups map to SMs; no two units touch the same
// accumulator, so the execution is lock-free. Each call allocates fresh
// buckets and a fresh result; see ExecuteIn for the reusing variant.
func Execute(cfg *Config, x, dy *tensor.Float32) *tensor.Float32 {
	return ExecuteIn(cfg, nil, x, dy, nil)
}

// ExecuteHalf runs the FP16 Tensor-Core path: transforms computed in FP32
// and rounded to binary16 ("SMEM storage"), EWM products of binary16 values
// accumulated in FP32 (the MMA contract), output transform in FP32 with
// the eq. (7) scaling matrices for α = 16 kernels. Buckets and the Kahan
// reduction stay FP32.
func ExecuteHalf(cfg *Config, x, dy *tensor.Half) *tensor.Float32 {
	return ExecuteHalfIn(cfg, nil, x, dy, nil)
}

// unitOffsets builds the prefix table of per-segment work-unit counts:
// entry i is the first global unit index of segment i, and the final entry
// is the total unit count. Segment si contributes rows·(F_W/n_si) units:
// rows is F_H, or the channel-block count of a depthwise plan.
func unitOffsets(fw, rows int, segs []Segment) []int {
	off := make([]int, len(segs)+1)
	for i, seg := range segs {
		off[i+1] = off[i] + rows*(fw/seg.K.N)
	}
	return off
}

// schedule returns the unit prefix table and total unit count for cfg,
// deriving them locally for hand-built configs (tests).
func schedule(cfg *Config) ([]int, int) {
	off := cfg.unitOff
	if off == nil {
		off = unitOffsets(cfg.Params.FW, cfg.Params.FH, cfg.Segments)
	}
	return off, off[len(off)-1]
}

// testPool, when non-nil, overrides the shared scheduling pool; the
// pool-vs-inline determinism tests inject widths the host machine does
// not have. Production always runs on sched.Default().
var testPool *sched.Pool

// execPool returns the worker pool every execution path schedules onto.
// One process-wide pool means concurrent callers (the serving runtime's
// request workers, parallel trainers) co-schedule on GOMAXPROCS workers
// instead of oversubscribing the machine with per-call goroutine sets.
func execPool() *sched.Pool {
	if testPool != nil {
		return testPool
	}
	return sched.Default()
}

// storage is the storage policy of one execution — the only thing the
// FP32, FP16 and quantized paths differ in. It decides each Ω kernel's
// transform matrices and the panel plans that apply them (plan), and the
// in-place rounding of every stored panel: the Ŵ cache entries and each
// X̂ panel ("SMEM storage" in the format). Operands reach the unit kernel
// already in float32 form (see operand.stage).
type storage struct {
	// half selects the binary16 path: pairing-free plans (bit-identical
	// to the row-by-column products the scalar-codec oracle pins; the
	// shared ± products of paired plans would round differently).
	half bool
	// scaled selects the eq. (7) scaling matrices for α ≥ 16 kernels.
	scaled bool
	// round rounds a stored panel in place; nil stores exact FP32.
	round func([]float32)
}

var (
	// fp32Storage: balanced transforms through paired plans (the Figure 8
	// shared ± products), no rounding.
	fp32Storage = storage{}
	// halfStorage: mixed-precision binary16 storage (paper §5.2).
	halfStorage = storage{half: true, scaled: true, round: fp16.RoundSlice}
)

// quantStorage is the storage policy of a Quantizer: balanced transforms
// (scaled ones for α ≥ 16 when UseScaling) through paired plans, so the
// identity quantizer reproduces FP32 bit for bit; rounding takes the
// format's bulk kernel, else per-element Round.
func quantStorage(q Quantizer) storage {
	round := q.RoundSlice
	if round == nil {
		round = func(vs []float32) {
			for i, v := range vs {
				vs[i] = q.Round(v)
			}
		}
	}
	return storage{scaled: q.UseScaling, round: round}
}

// unitPlan is one Ω kernel's transforms under a storage policy: the filter
// (G) and input (Dᵀ) panel plans and the output matrix A.
type unitPlan struct {
	g, dt *winograd.SymPlan
	a     *winograd.Mat
}

// plan resolves kernel k's transforms under the policy.
func (s storage) plan(k winograd.Kernel) unitPlan {
	g, d, a := s.mats(k.Transform())
	plans := winograd.PanelPlansFor
	if s.half {
		plans = winograd.SinglesPanelPlansFor
	}
	gp, dtp := plans(g, d)
	return unitPlan{gp, dtp, a}
}

// mats returns the policy's transform matrices: balanced transforms (which
// keep FP32 cancellation in the paper's accuracy band for the α = 16
// kernels), or the eq. (7) scaling matrices for α ≥ 16 when scaled
// (unit-L1 G and Dᵀ rows keep narrow-format values in dynamic range).
func (s storage) mats(tr *winograd.Transform) (g, d, a *winograd.Mat) {
	if s.scaled && tr.Alpha >= 16 {
		sc := tr.Scaled()
		return sc.G, sc.D, sc.A
	}
	bal := tr.Balanced()
	return bal.G, bal.D, bal.A
}

// halfMats returns the transform matrices of the FP16 path.
func halfMats(tr *winograd.Transform) (g, d, a *winograd.Mat) { return halfStorage.mats(tr) }

// rowMap addresses X along the flattened row axis of §3 Level 2: output
// row o_d·O_H + o_h at filter row f_d·F_H + f_h reads X row
// (o_d+f_d−p_D)·I_H + (o_h+f_h−p_H) of its image, clipped per axis
// (Figure 7). ∇Y and ∇W of a 3-D layer already have the layout of a 2-D
// plan with O_D·O_H output and F_D·F_H filter rows; only this X address
// differs, and a 2-D layer is the D = 1 case.
type rowMap struct {
	oh, fh int // output and filter rows per depth slice
	ih, id int // X rows per depth slice, depth slices per image
	ph, pd int // padding of the height and depth axes
}

// rows2D is the row map of a 2-D layer.
func rows2D(p conv.Params) rowMap {
	return rowMap{oh: p.OH(), fh: p.FH, ih: p.IH, id: 1, ph: p.PH}
}

// operand is one BFC input as the call supplies it: float32 data (FP32,
// quantized and 3-D calls) or binary16 data (FP16 calls).
type operand struct {
	f32 []float32
	f16 []fp16.Bits
}

// stage writes channels [off, off+width) of the operand's rows [pix,
// pix+rows) (srcC channels per row) into dst (rows × width) in the unit
// kernel's float32 form: decoded when binary16 (exact), else copied and
// rounded by round (nil copies exactly). Rounding here equals rounding
// every gathered tile, because Round works element by element and maps 0
// to 0 (the clipped padding).
func (o operand) stage(dst []float32, pix, rows, srcC, off, width int, round func([]float32)) {
	if o.f16 != nil {
		sliceDecodeChannels(dst, o.f16[pix*srcC:], rows, srcC, off, width)
		return
	}
	sliceChannels(dst, o.f32[pix*srcC:], rows, srcC, off, width)
	if round != nil {
		round(dst[:rows*width])
	}
}

// resident returns the float32 form of o the units read (c channels per
// pixel): the caller's data itself for exact FP32, else o staged once into
// the workspace mirror.
func (o operand) resident(mirror *[]float32, c int, round func([]float32)) []float32 {
	if o.f16 == nil && round == nil {
		return o.f32
	}
	n := len(o.f32) + len(o.f16)
	dst := growF32(mirror, n)
	o.stage(dst, 0, n/c, c, 0, c, round)
	return dst
}

// operands is the operand pair of one execution plus the row map that
// addresses X.
type operands struct {
	rows  rowMap
	x, dy operand
}

// planar shape-checks a 2-D operand pair against p.
func planar(p conv.Params, xs, dys tensor.Shape, x, dy operand, fn string) operands {
	if xs != p.XShape() || dys != p.DYShape() {
		panic("core: " + fn + " operand shape mismatch")
	}
	return operands{rows: rows2D(p), x: x, dy: dy}
}

// execPhase is one of the pooled phases of an execution.
type execPhase uint8

const (
	phaseFill     execPhase = iota // Ŵ-cache fill over global segment rows
	phaseUnits                     // the fused unit grid into the buckets
	phaseChannels                  // the channel-wide unit grid of a depthwise plan
	phaseReduce                    // Kahan reduce of the buckets over ∇W element ranges
)

// execJob is the pooled task of one execution's phases: the Ŵ-cache fill
// and the unit grid (or a depthwise plan's channel-wide grid), then the
// bucket reduce. It lives inside the Workspace so the steady-state
// dispatch allocates nothing: the fields are rewritten per call and the
// same *execJob is handed to the sched pool as a Task. The grouped
// dispatch calls fillRows/units inline per group against its slot arenas.
type execJob struct {
	cfg     *Config
	ws      *Workspace
	ops     operands // the call's operands (staged per tile by depthwise units)
	st      storage
	x, dy   []float32 // float32 operand sources (ungrouped executions)
	dst     []float32 // the reduce target (ungrouped and depthwise executions)
	traceOn bool
	phase   execPhase
}

// Run executes items [lo, hi) of the current phase — the sched.Task
// contract.
func (j *execJob) Run(lo, hi int) {
	switch j.phase {
	case phaseFill:
		j.fillRows(lo, hi, j.dy, j.ws.what32)
	case phaseUnits:
		j.units(lo, hi, j.x, j.ws.what32, j.ws.buckets)
	case phaseChannels:
		j.channelUnits(lo, hi)
	default:
		reduceRange(j.dst, j.ws.buckets, lo, hi)
	}
}

// fillRows fills global segment rows [lo, hi) of the Ŵ cache what from dy.
func (j *execJob) fillRows(lo, hi int, dy, what []float32) {
	cfg, ws := j.cfg, j.ws
	si := 0
	for i := lo; i < hi; i++ {
		for i >= ws.rowOff[si+1] {
			si++ // i only grows, so si scans forward
		}
		seg := cfg.Segments[si]
		fillRow(cfg.Params, seg, seg.Row0+i-ws.rowOff[si], ws.plans[si], j.st.round,
			dy, what[ws.whatOff[si]:ws.whatOff[si+1]])
	}
}

// units runs global (segment, f_h, width-tile) units [lo, hi) against the
// X source x, the Ŵ cache what and the segment buckets, recording each
// unit's stage durations when tracing.
func (j *execJob) units(lo, hi int, x, what []float32, buckets [][]float32) {
	cfg, ws := j.cfg, j.ws
	off := ws.unitOff
	si := 0
	for i := lo; i < hi; i++ {
		for i >= off[si+1] {
			si++
		}
		seg := cfg.Segments[si]
		jTiles := cfg.Params.FW / seg.K.N
		local := i - off[si]
		w := what[ws.whatOff[si]:ws.whatOff[si+1]]
		if !j.traceOn {
			segmentTile(cfg.Params, j.ops.rows, seg, local/jTiles, local%jTiles, ws.plans[si], j.st, x, w, buckets[si], nil)
			continue
		}
		var ut obs.UnitTimes
		t0 := time.Now()
		segmentTile(cfg.Params, j.ops.rows, seg, local/jTiles, local%jTiles, ws.plans[si], j.st, x, w, buckets[si], &ut)
		obs.RecordUnit(time.Since(t0), ut)
	}
}

// fillRow computes the Ŵ panels of one segment row: for every width tile
// and batch image, apply the filter transform Ŵ = G·W to the r-wide ∇Y
// unit straight into its cache slot, then round it in place under the
// storage policy. In the (N,H,W,C) layout the r unit rows are one
// contiguous [r][O_C] block — ∇Y is unpadded and segments tile O_W
// exactly, so the unit never clips and needs no gather copy. The panels
// depend only on (oh, ow0, nb), so one fill amortizes across all
// F_H·(F_W/n) units of the segment.
func fillRow(p conv.Params, seg Segment, oh int, pl unitPlan, round func([]float32),
	dy, what []float32) {
	r, oc, ow := seg.K.R, p.OC, p.OW()
	entry := seg.K.Alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles
	rows := p.OH()
	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			base := ((nb*rows+oh)*ow + ow0) * oc
			dst := what[((rowBase+t)*p.N+nb)*entry:][:entry]
			pl.g.MulPanel(dy[base:base+r*oc], dst, r, oc)
			if round != nil {
				round(dst)
			}
		}
	}
}

// traceSampleEvery is the 1-in-N sampling stride of the intra-unit stage
// timers: with tracing on, only every N-th (oh, ow0, nb) iteration times
// its transform and EWM spans, so -trace does not pay two time.Now()
// calls per inner iteration — the overhead that used to perturb the very
// stage shares it reports. Power of two so the sample test is a mask.
const traceSampleEvery = 8

// unitSampler implements the stage timing of one fused unit. The whole
// inner loop is timed once; the sampled iterations (see traceSampleEvery)
// only split that span between transform and EWM. Scaling the sampled
// spans up by the iteration/sample ratio instead multiplied the cold
// first iteration and any stall inside a sample by up to N, so the two
// stages could add up to more than the unit that encloses them. The zero
// value is ready to use; all state stays on the caller's stack.
type unitSampler struct {
	iters          int
	transform, ewm time.Duration
	start, t0      time.Time
	sampling       bool
}

// begin starts one inner iteration, arming the timers on sampled ones.
// The first iteration is always sampled and also starts the loop span.
func (u *unitSampler) begin(ut *obs.UnitTimes) {
	u.sampling = ut != nil && u.iters&(traceSampleEvery-1) == 0
	if u.sampling {
		u.t0 = time.Now()
		if u.iters == 0 {
			u.start = u.t0
		}
	}
	u.iters++
}

// mark records the transform span of a sampled iteration and re-arms for
// the EWM span.
func (u *unitSampler) mark() {
	if u.sampling {
		now := time.Now()
		u.transform += now.Sub(u.t0)
		u.t0 = now
	}
}

// end closes a sampled iteration's EWM span.
func (u *unitSampler) end() {
	if u.sampling {
		u.ewm += time.Since(u.t0)
	}
}

// flush splits the loop span between transform and EWM in the sampled
// ratio and adds both shares to ut; they sum to the span exactly.
func (u *unitSampler) flush(ut *obs.UnitTimes) {
	sampled := u.transform + u.ewm
	if ut == nil || sampled <= 0 {
		return
	}
	span := time.Since(u.start)
	tr := time.Duration(float64(span) * float64(u.transform) / float64(sampled))
	ut.Transform += tr
	ut.EWM += span - tr
}

// segmentTile is the dense Ω_α(n,r) unit kernel of every precision and
// dimension: for one (segment, f_h, width-tile) unit it produces the ∇W
// rows [j·n, (j+1)·n) at (flattened) filter row fh for all (oc, ic). Its
// EWM is one GEMM per α-plane over the unit's tiles,
// v[e] += Σ_t Ŵ_t[e] ⊗ X̂_t[e], accumulated over the segment's rows, width
// tiles and the batch in that order. The unit walks its valid (row, tile,
// image) iterations in chunks of up to chunkTiles tiles (see
// denseChunk.run); per unit, the output transform Aᵀ stores the bucket
// rows. p is the plan's 2-D (flattened) geometry; x is the float32 X
// source in (N, rm rows, I_W, I_C) layout and what the segment's Ŵ cache
// (filled once per (oh, ow0, nb) by fillRow).
//
// ut, when non-nil, accumulates sampled, scaled intra-unit transform and
// EWM durations and the timed epilogue for the observability layer; the
// nil path adds only predictable never-taken branches.
func segmentTile(p conv.Params, rm rowMap, seg Segment, fh, j int, pl unitPlan, st storage,
	x, what, bucket []float32, ut *obs.UnitTimes) {
	n, r, alpha := seg.K.N, seg.K.R, seg.K.Alpha
	oc, ic := p.OC, p.IC
	tcMax := chunkTiles(alpha, oc, ic)

	s := getTileScratch()
	defer putTileScratch(s)
	c := denseChunk{
		p: p, pl: pl, round: st.round, kernel: selectEWM(ic).chunk,
		x: x, what: what, alpha: alpha,
		v:    growF32(&s.v, alpha*oc*ic), // accumulators [α][OC][IC]: the register tile of Algorithm 3
		xRaw: growF32(&s.xRaw, alpha*tcMax*ic),
		xHat: growF32(&s.xHatF, alpha*tcMax*ic),
		wHat: growF32(&s.wHatF, alpha*tcMax*oc),
	}
	its := s.iters[:0]
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r
	xRows := rm.id * rm.ih

	// Row-axis cursor: (od, oy) is output row oh split into its depth
	// slice and in-slice row, advanced incrementally; (fd, fy) splits the
	// unit's filter row the same way.
	fd, fy := fh/rm.fh, fh%rm.fh
	od, oy := seg.Row0/rm.oh, seg.Row0%rm.oh
	var smp unitSampler
	first := true
	for oh := seg.Row0; oh < seg.Row1; oh, oy = oh+1, oy+1 {
		if oy == rm.oh {
			od, oy = od+1, 0
		}
		id, ih := od+fd-rm.pd, oy+fy-rm.ph
		if id < 0 || id >= rm.id || ih < 0 || ih >= rm.ih {
			continue // depth- and height-axis clipping (Figure 7)
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				its = append(its, tileIter{
					what: ((rowBase+t)*p.N + nb) * entry,
					pix:  (nb*xRows + id*rm.ih + ih) * p.IW,
					iw0:  ow0 + colBase - p.PW,
				})
				if len(its) == tcMax {
					c.run(its, first, &smp, ut)
					its, first = its[:0], false
				}
			}
		}
	}
	switch {
	case len(its) > 0:
		c.run(its, first, &smp, ut)
	case first:
		clear(c.v) // every row clipped: the epilogue stores zeros
	}
	s.iters = its
	smp.flush(ut)
	var t0 time.Time
	if ut != nil {
		t0 = time.Now()
	}
	writeOutput(p, pl.a, c.v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha*n))
	if ut != nil {
		ut.Epilogue += time.Since(t0)
	}
}

// maxChunkTiles and chunkBytes bound a dense unit's chunk: at most
// maxChunkTiles tiles, and chunk panels (X, X̂ and Ŵ) of at most
// chunkBytes each unless one tile alone is larger. In a sweep of constant
// chunk lengths on the VGG16 layers, 8 and 16 were slower and 32 and 64
// tied (EXPERIMENTS.md, "Tile-blocked EWM").
const (
	maxChunkTiles = 32
	chunkBytes    = 256 << 10
)

// chunkTiles returns the chunk length T_c of a dense unit with α-point
// tiles, I_C input and O_C output channels: 1 under the test-only
// ewmTileFused force, which moves every chunk boundary of the default.
func chunkTiles(alpha, oc, ic int) int {
	if ewmForce == ewmTileFused {
		return 1
	}
	return max(1, min(maxChunkTiles, chunkBytes/(4*alpha*max(oc, ic))))
}

// tileIter is one valid (row, tile, image) iteration of a dense unit: the
// offset of its Ŵ cache entry, the first pixel of its X row and the
// (possibly negative) X column of its first tile column.
type tileIter struct {
	what, pix, iw0 int
}

// denseChunk is the per-unit state of segmentTile's chunk loop: the
// operands, the storage policy's transforms and rounding, the selected
// chunk kernel, and the chunk panels, all sized for chunkTiles tiles.
type denseChunk struct {
	p                   conv.Params
	pl                  unitPlan
	round               func([]float32)
	kernel              ewmChunkFunc
	x, what             []float32
	alpha               int
	v, xRaw, xHat, wHat []float32 // [α][OC][IC], [α][T_c·IC] twice, [α][T_c][OC]
}

// run accumulates one chunk of a unit's iterations into the accumulators.
// It gathers the α X rows of every tile plane-major into xRaw, [α][tc·IC],
// with implicit zero padding for width-clipped columns, and packs the
// tiles' Ŵ panels plane-major into wHat, [α][tc][OC]. One input transform
// X̂ = Dᵀ·X at width tc·IC covers the chunk, since the panel plans run
// one independent chain per column, and one rounding call stores it under
// the storage policy, element by element. Then each α-plane runs the
// chunk kernel, which adds the chunk's tiles in iteration order; the
// first chunk starts the sums from +0. The chunk is the sampler's
// iteration: gather, pack and transform are its transform span, the
// kernel calls its EWM span.
func (c *denseChunk) run(its []tileIter, first bool, smp *unitSampler, ut *obs.UnitTimes) {
	p, x, alpha := c.p, c.x, c.alpha
	oc, ic := p.OC, p.IC
	tc := len(its)
	width := tc * ic
	smp.begin(ut)
	for t, it := range its {
		for u := 0; u < alpha; u++ {
			dst := c.xRaw[u*width+t*ic:][:ic]
			if iw := it.iw0 + u; iw >= 0 && iw < p.IW {
				copy(dst, x[(it.pix+iw)*ic:][:ic])
			} else {
				clear(dst)
			}
		}
		w := c.what[it.what:][:alpha*oc]
		for e := 0; e < alpha; e++ {
			copy(c.wHat[(e*tc+t)*oc:][:oc], w[e*oc:][:oc])
		}
	}
	xRaw, xHat := c.xRaw[:alpha*width], c.xHat[:alpha*width]
	c.pl.dt.MulPanel(xRaw, xHat, alpha, width)
	if c.round != nil {
		c.round(xHat)
	}
	smp.mark()
	for e := 0; e < alpha; e++ {
		c.kernel(c.v[e*oc*ic:(e+1)*oc*ic], c.wHat[e*tc*oc:(e+1)*tc*oc], xHat[e*width:(e+1)*width], oc, ic, tc, first)
	}
	smp.end()
}

// writeOutput applies the FP32 output transform Aᵀ to the accumulators and
// stores the n output columns into the bucket at (·, fh, colBase…, ·): for
// each (oc, column i), outputRow builds the I_C-wide bucket row in place.
// The segment's units together cover every bucket element exactly once,
// so a store (not an add) is the whole epilogue: buckets need no zeroing,
// and since each element is produced from +0 it is never −0, so the
// stored bits equal the +0 + s of an add into a zeroed bucket. acc is at
// least α·n floats of scratch, for Aᵀ in float32.
func writeOutput(p conv.Params, aMat *winograd.Mat, v []float32, bucket []float32,
	fh, colBase, n, alpha, oc, ic int, acc []float32) {
	aT := transposeA(aMat, acc, n, alpha)
	dwShape := p.DWShape()
	for a := 0; a < oc; a++ {
		for i := 0; i < n; i++ {
			off := dwShape.Index(a, fh, colBase+i, 0)
			outputRow(bucket[off:off+ic], aT[i*alpha:(i+1)*alpha], v[a*ic:], oc*ic)
		}
	}
}

// transposeA writes Aᵀ in float32 to acc[:n·α], row i holding column i of
// the α×n output matrix A, and returns it.
func transposeA(aMat *winograd.Mat, acc []float32, n, alpha int) []float32 {
	aT := acc[:alpha*n]
	for i := 0; i < n; i++ {
		for e := 0; e < alpha; e++ {
			aT[i*alpha+e] = float32(aMat.At(e, i))
		}
	}
	return aT
}

// outputRow sets row[b] = Σ_e cs[e]·v[e·stride + b]: each element starts at
// +0 and adds its terms in ascending e — the operation sequence of a
// per-element dot product over the α accumulators. On an AVX2 host the
// AVX2 kernel produces the largest multiple of 8 elements, eight lanes
// per register with the same per-lane sequence, and outputRowGo the rest.
func outputRow(row, cs, v []float32, stride int) {
	if n8 := len(row) &^ 7; cpufeat.HasAVX2 && n8 > 0 && len(cs) > 0 {
		_ = v[(len(cs)-1)*stride : (len(cs)-1)*stride+len(row)] // the kernel checks no bounds
		outputRowAVX2(&row[0], &cs[0], &v[0], n8, len(cs), stride)
		if n8 == len(row) {
			return
		}
		row, v = row[n8:], v[n8:]
	}
	outputRowGo(row, cs, v, stride)
}

// outputRowGo is the portable outputRow and the AVX2 kernel's oracle. Four
// terms are added per pass over the row, so each element stays in a
// register across them.
func outputRowGo(row, cs, v []float32, stride int) {
	for b := range row {
		row[b] = 0
	}
	e := 0
	for ; e+4 <= len(cs); e += 4 {
		c0, c1, c2, c3 := cs[e], cs[e+1], cs[e+2], cs[e+3]
		v0 := v[e*stride:][:len(row)]
		v1 := v[(e+1)*stride:][:len(row)]
		v2 := v[(e+2)*stride:][:len(row)]
		v3 := v[(e+3)*stride:][:len(row)]
		for b := range row {
			s := row[b]
			s += c0 * v0[b]
			s += c1 * v1[b]
			s += c2 * v2[b]
			s += c3 * v3[b]
			row[b] = s
		}
	}
	for ; e < len(cs); e++ {
		c := cs[e]
		for b, x := range v[e*stride:][:len(row)] {
			row[b] += c * x
		}
	}
}

// matTMulF32 computes out = mᵀ·in for in laid out [m.Rows][width] and out
// [m.Cols][width], in float32.
func matTMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Rows {
		panic("core: matTMulF32 dimension mismatch")
	}
	for i := 0; i < m.Cols; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
	}
	for k := 0; k < rows; k++ {
		src := in[k*width : (k+1)*width]
		for i := 0; i < m.Cols; i++ {
			c := float32(m.At(k, i))
			if c == 0 {
				continue
			}
			dst := out[i*width : (i+1)*width]
			for x, sv := range src {
				dst[x] += c * sv
			}
		}
	}
}

// BackwardFilter is the one-call convenience API: configure and execute in
// FP32.
func BackwardFilter(p conv.Params, x, dy *tensor.Float32, opts ...Option) (*tensor.Float32, error) {
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return Execute(cfg, x, dy), nil
}

// BackwardFilterHalf is the one-call FP16 path.
func BackwardFilterHalf(p conv.Params, x, dy *tensor.Half, opts ...Option) (*tensor.Float32, error) {
	// Clone before appending: opts aliases the caller's variadic slice,
	// and appending in place would clobber its backing array when the
	// caller passed a shared slice with spare capacity via opts... .
	opts = append(append([]Option(nil), opts...), WithFP16())
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return ExecuteHalf(cfg, x, dy), nil
}
