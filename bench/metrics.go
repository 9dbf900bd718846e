package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them: a library step and a
// served request are both one "operation" of latency_ms_p10, and gflops is
// the direct-equivalent FLOP rate of whichever the workload runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p10", "ms", "lower"},
	{"gflops", "GFLOP/s", "higher"},
	{"workspace_mb", "MiB", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// Layer names whose per-call time the traced run reports.
var (
	ewmKernels   = []string{"Omega4(3,2)", "Omega8(3,6)", "Omega16(9,8)"}
	ewmVariants  = []string{"block4x4", "block8x4", "block8x8", "xform+block8x8", "fused8x8"}
	panelKernels = []struct{ n, r int }{{3, 2}, {3, 6}, {9, 8}}
	backendNames = []string{"winrs", "gemm", "direct", "fft", "winnf"}
)

// perLayer are the traced run's metrics, each a call into one module's
// exported functions timed from outside, or a count read from the server.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{name, unit, better}) }
	add("loop.latency_ms_p50", "ms", "lower")
	add("loop.latency_ms_tail", "ms", "lower")
	add("loop.gflops_mean", "GFLOP/s", "higher")
	for _, g := range append(vgg16Layers(1), mobilenetDepthwise(1)...) {
		add("winrs.exec_ms."+g.name, "ms", "lower")
	}
	add("trace.self_frac", "ratio", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	add("core.configure_ms", "ms", "lower")
	add("core.workspace_alloc_ms", "ms", "lower")
	add("core.workspace_bytes", "bytes", "lower")
	add("core.what_cache_bytes", "bytes", "lower")
	for _, k := range ewmKernels {
		for _, v := range ewmVariants {
			add(ewmMetric(k, v), "ns", "lower")
		}
	}
	for _, k := range panelKernels {
		for _, w := range []string{"w16", "w1"} {
			add(fmt.Sprintf("winograd.panel_ns.%s.%s", sanitize(panelKernelName(k.n, k.r)), w), "ns", "lower")
		}
	}
	add("fp16.round_ns_per_elem", "ns", "lower")
	add("fp16.decode_ns_per_elem", "ns", "lower")
	add("sched.parallel_eff", "ratio", "higher")
	add("serve.decode_us", "us", "lower")
	add("serve.plan_get_us.hit", "us", "lower")
	add("serve.plan_get_us.miss", "us", "lower")
	add("serve.exec_us", "us", "lower")
	add("serve.encode_us", "us", "lower")
	add("serve.server_ms_p50", "ms", "lower")
	add("serve.http_overhead_ms", "ms", "lower")
	add("serve.cache_hit_ratio", "ratio", "higher")
	add("serve.rejected_frac", "ratio", "lower")
	for _, b := range backendNames {
		add("backend.chosen_frac."+b, "ratio", "higher")
	}
	add("backend.dispatch_ms_p50", "ms", "lower")
	add("backend.dispatch_ms_p90", "ms", "lower")
	add("backend.pred_ratio_p50", "ratio", "higher")
	add("host.gemm_gflops", "GFLOP/s", "higher")
	add("core.gemm_peak_frac", "ratio", "higher")
	add("core.flop_per_byte", "flop/byte", "higher")
	add("loadgen.late_ms_p90", "ms", "lower")
	add("check.mare_max", "ratio", "lower")
	return ds
}

var unsafeChars = regexp.MustCompile(`[^A-Za-z0-9_.-]+`)

// sanitize maps a kernel or variant name onto the metric-name alphabet
// [A-Za-z0-9_.-]: "Omega4(3,2)" → "Omega4_3_2", "xform+block8x8" →
// "xform_block8x8".
func sanitize(s string) string {
	return strings.Trim(unsafeChars.ReplaceAllString(s, "_"), "_")
}

func ewmMetric(kernel, variant string) string {
	return "core.ewm_ns." + sanitize(kernel) + "." + sanitize(variant)
}

func panelKernelName(n, r int) string {
	return fmt.Sprintf("Omega%d(%d,%d)", n+r-1, n, r)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and echoes each, with its sample
// count, as a human-readable line.
type report struct {
	w       io.Writer
	defs    []metricDef
	metrics map[string]metricValue
}

func newReport(w io.Writer, defs []metricDef) *report {
	return &report{w: w, defs: defs, metrics: map[string]metricValue{}}
}

// set records a metric; note says what it was computed from (sample
// count, percentile rule).
func (r *report) set(name string, v float64, note string) {
	unit := ""
	for _, d := range r.defs {
		if d.name == name {
			unit = d.unit
		}
	}
	if unit == "" {
		return // not part of this run's metric set
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "metric %-44s %16.6g %-9s %s\n", name, v, unit, note)
}

// complete checks that every declared metric was set to a finite value.
func (r *report) complete() error {
	var missing []string
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics missing or not finite: %v", missing)
	}
	return nil
}
