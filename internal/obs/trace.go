package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented phase of the WinRS gradient pipeline.
// The boundaries mirror the paper's three-phase structure plus the fused
// kernel's internal split: who wins between algorithms is explained by how
// the per-stage shares shift (transform-bound vs EWM-bound regimes).
type Stage uint8

const (
	// StageSegmentTile is one fused Ω_α(n,r) work unit end to end
	// (gathers, transforms, EWM and output transform for one
	// segment × f_h × width-tile).
	StageSegmentTile Stage = iota
	// StageTransform covers the operand gathers plus the G·W and Dᵀ·X
	// Winograd transforms inside a unit.
	StageTransform
	// StageEWM covers the α-batched element-wise outer products (the
	// emulated Tensor-Core MMA).
	StageEWM
	// StageWHat is the Ŵ-cache pre-pass of one execution: gathering and
	// filter-transforming every ∇Y unit once before the fused units run.
	// Recorded once per execution (once per group on grouped plans), like
	// StageReduce.
	StageWHat
	// StageReduce is the Kahan bucket reduction of one execution (of one
	// group on grouped plans).
	StageReduce
	// StageGroupGather is one grouped-execution channel gather: slicing a
	// group's I_C/G input or O_C/G ∇Y channels into its staging slab. Each
	// group records two, one per operand.
	StageGroupGather
	// StageEpilogue is one unit's output transform Aᵀ into its bucket, the
	// last step of a fused unit; like StageTransform and StageEWM it is
	// nested in StageSegmentTile.
	StageEpilogue
	// NumStages bounds the enum.
	NumStages
)

var stageNames = [NumStages]string{"segment_tile", "transform", "ewm", "what_transform", "reduce", "group_gather", "epilogue"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// traceEnabled gates all recording. Off by default: the disabled execution
// path pays one atomic load per ExecuteIn call and nothing per unit.
var traceEnabled atomic.Bool

// EnableTrace switches per-stage tracing on or off process-wide.
func EnableTrace(v bool) { traceEnabled.Store(v) }

// TraceEnabled reports whether stage tracing is on. Hot paths load it once
// per execution, not per unit.
func TraceEnabled() bool { return traceEnabled.Load() }

// UnitTimes accumulates the intra-unit stage durations of one fused kernel
// invocation. The executor keeps it on the stack and records it once per
// unit, so the enabled path allocates nothing either.
type UnitTimes struct {
	Transform time.Duration
	EWM       time.Duration
	Epilogue  time.Duration
}

// stageRec is the lock-free accumulator of one stage.
type stageRec struct {
	count atomic.Uint64
	sumNS atomic.Int64
	h     hist
}

var trace [NumStages]stageRec

// RecordStage adds one observation to a stage.
func RecordStage(s Stage, d time.Duration) {
	r := &trace[s]
	r.count.Add(1)
	r.sumNS.Add(d.Nanoseconds())
	r.h.record(d)
}

// RecordUnit records one fused work unit: its total duration plus the
// intra-unit transform, EWM and epilogue shares.
func RecordUnit(total time.Duration, ut UnitTimes) {
	RecordStage(StageSegmentTile, total)
	RecordStage(StageTransform, ut.Transform)
	RecordStage(StageEWM, ut.EWM)
	RecordStage(StageEpilogue, ut.Epilogue)
}

// ResetTrace zeroes all stage accumulators (bench isolation). Concurrent
// recorders may leak a few observations across the reset; that is fine for
// a stats surface.
func ResetTrace() {
	for s := range trace {
		trace[s].count.Store(0)
		trace[s].sumNS.Store(0)
		trace[s].h.reset()
	}
}

// StageStats is one stage's folded snapshot.
type StageStats struct {
	Stage Stage
	Count uint64
	Total time.Duration
	// P50, P90 and P99 are approximate upper-bound quantiles in seconds.
	P50, P90, P99 float64
}

// TraceSnapshot folds the recorder into per-stage stats.
func TraceSnapshot() [NumStages]StageStats {
	var out [NumStages]StageStats
	for s := Stage(0); s < NumStages; s++ {
		r := &trace[s]
		counts, total := r.h.snapshot()
		out[s] = StageStats{
			Stage: s,
			Count: r.count.Load(),
			Total: time.Duration(r.sumNS.Load()),
			P50:   quantileOf(&counts, total, 0.5),
			P90:   quantileOf(&counts, total, 0.9),
			P99:   quantileOf(&counts, total, 0.99),
		}
	}
	return out
}

// StageShares returns each stage's fraction of the total traced time,
// where the denominator is what-transform + segment-tile + reduce (the
// three stages that partition one execution; transform and EWM are nested
// inside the tile).
func StageShares() map[string]float64 {
	snap := TraceSnapshot()
	denom := float64(snap[StageWHat].Total + snap[StageSegmentTile].Total + snap[StageReduce].Total)
	out := make(map[string]float64, NumStages)
	if denom <= 0 {
		return out
	}
	for _, st := range snap {
		out[st.Stage.String()] = float64(st.Total) / denom
	}
	return out
}

// WriteTraceTo renders the per-stage histograms in Prometheus text format:
// one winrs_stage_duration_seconds family labelled by stage, plus the
// per-stage totals as counters. Stages with no observations still emit
// their (empty) series so dashboards can discover the label set.
func WriteTraceTo(w io.Writer) error {
	cw := &countingWriter{w: w}
	io.WriteString(cw, "# HELP winrs_stage_duration_seconds Duration of WinRS pipeline stages (per fused unit; reduce per execution).\n")
	io.WriteString(cw, "# TYPE winrs_stage_duration_seconds histogram\n")
	for s := Stage(0); s < NumStages; s++ {
		r := &trace[s]
		counts, total := r.h.snapshot()
		writeHistSamples(cw, "winrs_stage_duration_seconds",
			[]Label{{"stage", s.String()}}, &counts, total,
			float64(r.sumNS.Load())/1e9, []float64{0.5, 0.9, 0.99})
	}
	io.WriteString(cw, "# HELP winrs_stage_time_ns_total Cumulative nanoseconds spent per stage.\n")
	io.WriteString(cw, "# TYPE winrs_stage_time_ns_total counter\n")
	for s := Stage(0); s < NumStages; s++ {
		writeCounterLine(cw, "winrs_stage_time_ns_total", s.String(),
			uint64(trace[s].sumNS.Load()))
	}
	io.WriteString(cw, "# HELP winrs_stage_units_total Cumulative observations per stage.\n")
	io.WriteString(cw, "# TYPE winrs_stage_units_total counter\n")
	for s := Stage(0); s < NumStages; s++ {
		writeCounterLine(cw, "winrs_stage_units_total", s.String(), trace[s].count.Load())
	}
	return cw.err
}

func writeCounterLine(w io.Writer, name, stage string, v uint64) {
	fmt.Fprintf(w, "%s{stage=%q} %d\n", name, stage, v)
}
