package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"winrs/internal/backend"
	"winrs/internal/core"
	"winrs/internal/fp16"
	"winrs/internal/serve"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// nsPerCall times f from outside: it grows a batch until one batch takes at
// least 2ms, then returns the median ns per call over seven batches.
func nsPerCall(f func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		iters *= 2
	}
	per := make([]float64, 7)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// probeKernels times the workload-independent kernel layers: every EWM
// micro-cell, the input-transform panel at widths 16 and 1, and the
// binary16 codec on 1 MiB of float32.
func probeKernels(rep *report) error {
	for _, c := range core.EWMMicroCells() {
		rep.set(ewmMetric(c.Kernel, c.Variant), nsPerCall(c.Run), "median of 7 batches")
	}
	for _, kr := range panelKernels {
		k, ok := winograd.Lookup(kr.n, kr.r)
		if !ok {
			return fmt.Errorf("no Winograd kernel F(%d,%d)", kr.n, kr.r)
		}
		_, dt := k.Transform().Balanced().PanelPlans()
		for _, width := range []int{16, 1} {
			in := make([]float32, k.Alpha*width)
			out := make([]float32, k.Alpha*width)
			for i := range in {
				in[i] = float32(i%13)/13 - 0.5
			}
			name := fmt.Sprintf("winograd.panel_ns.%s.w%d", sanitize(k.String()), width)
			rep.set(name, nsPerCall(func() { dt.MulPanel(in, out, k.Alpha, width) }), "median of 7 batches")
		}
	}
	const elems = 1 << 18 // 1 MiB of float32
	src := make([]float32, elems)
	dst := make([]float32, elems)
	bits := make([]fp16.Bits, elems)
	for i := range src {
		src[i] = float32(i%1000)/997 - 0.5
		bits[i] = fp16.FromFloat32(src[i])
	}
	rep.set("fp16.round_ns_per_elem", nsPerCall(func() { fp16.RoundInto(dst, src) })/elems, "RoundInto, 2^18 elements")
	rep.set("fp16.decode_ns_per_elem", nsPerCall(func() { fp16.DecodeSlice(dst, bits) })/elems, "DecodeSlice, 2^18 elements")
	return nil
}

func coreOpts(g geom) []core.Option {
	if g.fp16 {
		return []core.Option{core.WithFP16()}
	}
	return nil
}

// probeConfigure times configuration adaptation (core.Configure) and
// workspace allocation (core.NewWorkspace) on the workload's pass geometry,
// three times each, and reports the medians.
func probeConfigure(rep *report, gs []geom) error {
	var cfgMS, wsMS []float64
	for round := 0; round < 3; round++ {
		for _, g := range gs {
			t0 := time.Now()
			cfg, err := core.Configure(g.p, coreOpts(g)...)
			if err != nil {
				return fmt.Errorf("Configure %s: %w", g.name, err)
			}
			t1 := time.Now()
			core.NewWorkspace(cfg)
			cfgMS = append(cfgMS, ms(t1.Sub(t0)))
			wsMS = append(wsMS, ms(time.Since(t1)))
		}
	}
	rep.set("core.configure_ms", median(cfgMS), fmt.Sprintf("median of %d", len(cfgMS)))
	rep.set("core.workspace_alloc_ms", median(wsMS), fmt.Sprintf("median of %d", len(wsMS)))
	return nil
}

// probeDispatch runs cost-model dispatch with top-2 measurement on gs and
// reports its latency and the cost model's predicted ÷ measured time over
// every measured candidate.
func probeDispatch(rep *report, gs []geom) error {
	var durMS, ratio []float64
	for _, g := range gs {
		prec := backend.FP32
		if g.fp16 {
			prec = backend.FP16
		}
		t0 := time.Now()
		d, err := backend.Default().Dispatch(g.p, prec, backend.Options{Measure: true})
		if err != nil {
			return fmt.Errorf("Dispatch %s: %w", g.name, err)
		}
		durMS = append(durMS, ms(time.Since(t0)))
		for _, c := range d.Candidates {
			if c.MeasuredNs > 0 {
				ratio = append(ratio, c.PredictedNs/c.MeasuredNs)
			}
		}
	}
	p90, beyond := percentile(durMS, 0.9)
	rep.set("backend.dispatch_ms_p50", median(durMS), fmt.Sprintf("n=%d", len(durMS)))
	rep.set("backend.dispatch_ms_p90", p90, fmt.Sprintf("n=%d, %d beyond", len(durMS), beyond))
	rep.set("backend.pred_ratio_p50", median(ratio), fmt.Sprintf("n=%d measured candidates", len(ratio)))
	return nil
}

// probeMARE reports the largest MARE against the float64 direct oracle of
// the library results for keys.
func probeMARE(rep *report, keys []*keyData) error {
	var worst float64
	for _, k := range keys {
		got, err := k.libraryResult()
		if err != nil {
			return err
		}
		x, dy, err := k.operands()
		if err != nil {
			return err
		}
		m, err := checkOracle(k.g, got, x, dy)
		if err != nil {
			return fmt.Errorf("%s: %w", k.g.name, err)
		}
		worst = math.Max(worst, m)
	}
	rep.set("check.mare_max", worst, fmt.Sprintf("%d keys vs float64 direct", len(keys)))
	return nil
}

// replay pushes a request stream through the server's stages in process,
// each timed from outside: DecodeRequest + DecodeF32/F16, PlanCache.Get
// (hit or miss), the WinRS ExecuteInCtx/ExecuteHalfInCtx or the chosen
// backend's ExecuteCtx, and AppendF32. Each request is a root span with
// one child per stage.
func replay(rep *report, tr *tracer, keys []*keyData, order []int) error {
	cache := serve.NewPlanCache(256)
	ctx := context.Background()
	var enc []byte
	for op, k := range order {
		// The root also spans the body copy and the result allocation,
		// which belong to no stage: they are the replay's own self time.
		t0 := time.Now()
		body := keys[k].body()
		ts := time.Now()
		hdr, payload, err := serve.DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return err
		}
		p, half := hdr.Params, hdr.DType == serve.F16
		var x, dy *tensor.Float32
		var xh, dyh *tensor.Half
		na := p.XShape().Elems()
		if half {
			xh, dyh = tensor.NewHalf(p.XShape()), tensor.NewHalf(p.DYShape())
			err = serve.DecodeF16(payload[:2*na], xh.Data)
			if err == nil {
				err = serve.DecodeF16(payload[2*na:], dyh.Data)
			}
		} else {
			x, dy = tensor.NewFloat32(p.XShape()), tensor.NewFloat32(p.DYShape())
			err = serve.DecodeF32(payload[:4*na], x.Data)
			if err == nil {
				err = serve.DecodeF32(payload[4*na:], dy.Data)
			}
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		e, hit, err := cache.Get(serve.PlanKey{Params: p, FP16: half, Algo: hdr.Algo})
		if err != nil {
			return err
		}
		tg := time.Now()
		dw := tensor.NewFloat32(p.DWShape())
		t2 := time.Now()
		if e.Cfg != nil {
			ws := e.AcquireWorkspace()
			if half {
				_, err = core.ExecuteHalfInCtx(ctx, e.Cfg, ws, xh, dyh, dw)
			} else {
				_, err = core.ExecuteInCtx(ctx, e.Cfg, ws, x, dy, dw)
			}
			e.ReleaseWorkspace(ws)
		} else {
			b, _ := backend.Default().Get(e.Backend)
			if half {
				err = b.ExecuteHalfCtx(ctx, p, xh, dyh, dw)
			} else {
				err = b.ExecuteCtx(ctx, p, x, dy, dw)
			}
		}
		if err != nil {
			return err
		}
		t3 := time.Now()
		enc = serve.AppendF32(enc[:0], dw.Data)
		t4 := time.Now()
		id := tr.add(0, op, "replay.request", t0, t4)
		tr.add(id, op, "serve.decode", ts, t1)
		get := "serve.plan_get.miss"
		if hit {
			get = "serve.plan_get.hit"
		}
		tr.add(id, op, get, t1, tg)
		tr.add(id, op, "serve.exec", t2, t3)
		tr.add(id, op, "serve.encode", t3, t4)
	}
	for _, s := range []struct{ metric, span string }{
		{"serve.decode_us", "serve.decode"},
		{"serve.plan_get_us.hit", "serve.plan_get.hit"},
		{"serve.plan_get_us.miss", "serve.plan_get.miss"},
		{"serve.exec_us", "serve.exec"},
		{"serve.encode_us", "serve.encode"},
	} {
		d := tr.durations(s.span)
		rep.set(s.metric, 1e3*median(d), fmt.Sprintf("p50 of %d in-process replays", len(d)))
	}
	return nil
}

// serverMetrics reports the server's own view of a timed window, from two
// /metrics snapshots: its median request time, the mean client-side HTTP
// exchange time beyond the server's mean, the plan-cache hit ratio, the
// share of requests refused, and which backends executed.
func serverMetrics(rep *report, before, after scrape, exchangeMS []float64, sent int64) {
	const hist = "winrs_request_latency_seconds"
	rep.set("serve.server_ms_p50", 1e3*histP50(before, after, hist), "bucket bound, 25% resolution")
	n := delta(before, after, hist+"_count")
	rep.set("serve.http_overhead_ms", mean(exchangeMS)-1e3*delta(before, after, hist+"_sum")/n,
		fmt.Sprintf("client mean over %d − server mean over %.0f", len(exchangeMS), n))
	hits := delta(before, after, "winrs_plan_cache_hits_total")
	misses := delta(before, after, "winrs_plan_cache_misses_total")
	rep.set("serve.cache_hit_ratio", hits/(hits+misses), fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	rep.set("serve.rejected_frac", delta(before, after, "winrs_rejected_total")/float64(sent),
		fmt.Sprintf("of %d sent", sent))
	var total float64
	chosen := map[string]float64{}
	for _, b := range backendNames {
		chosen[b] = delta(before, after, fmt.Sprintf(`winrs_dispatch_total{backend=%q}`, b))
		total += chosen[b]
	}
	for _, b := range backendNames {
		rep.set("backend.chosen_frac."+b, chosen[b]/total, fmt.Sprintf("of %.0f executions", total))
	}
}

// flopPerByte is the computed arithmetic intensity of gs: direct-equivalent
// FLOPs over the bytes of X, ∇Y and ∇W at each layer's storage precision
// (computed from tensor sizes, not measured traffic).
func flopPerByte(gs []geom) float64 {
	var f, b float64
	for _, g := range gs {
		f += float64(g.p.FLOPs())
		if g.fp16 {
			b += float64(g.p.DataBytes16())
		} else {
			b += float64(g.p.DataBytes32())
		}
	}
	return f / b
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
