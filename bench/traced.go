package main

import (
	"bytes"
	"fmt"
	"time"

	"winrs"
)

// traceMetrics computes the per-layer metrics of a traced run: span-derived
// numbers from the timed phase, then probes that time calls into each
// module's exported functions from outside.
func traceMetrics(cfg config, w workload, env envInfo, tr *tracer, ph *phase, rep *report) error {
	// Layer times for both networks: the workload's own layers were traced
	// in the timed phase, any other network gets a short traced probe.
	for _, net := range libraryNets(cfg.short) {
		if w.kind != library || net[0].name != w.geoms[0].name {
			if err := probeNet(net, cfg.seed, tr); err != nil {
				return err
			}
		}
		for _, g := range net {
			d := tr.durations("winrs.exec." + g.name)
			rep.set("winrs.exec_ms."+g.name, median(d), fmt.Sprintf("p50 of %d traced calls", len(d)))
		}
	}
	op := "step"
	if w.kind == serving {
		op = "request"
	}
	// A span costs microseconds against operations of milliseconds, so the
	// loop's median and tail use every operation of the run.
	all := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		all[i] = o.ms
	}
	rep.set("loop.latency_ms_p50", median(all), fmt.Sprintf("n=%d %ss", len(all), op))
	tail, beyond := percentile(all, w.tail)
	rep.set("loop.latency_ms_tail", tail, fmt.Sprintf("p%g, n=%d, %d beyond", 100*w.tail, len(all), beyond))
	rep.set("loop.gflops_mean", mean(ph.rates), fmt.Sprintf("mean of %d closed-loop samples", len(ph.rates)))
	over, nkeys := overheadFrac(ph.ops)
	rep.set("trace.overhead_frac", over, fmt.Sprintf("median over %d keys of traced p50 ÷ untraced p50, interleaved", nkeys))

	pass := passGeoms(w)
	if err := probeConfigure(rep, pass); err != nil {
		return err
	}
	_, ws, what, err := workspaceBytes(w.geoms)
	if err != nil {
		return err
	}
	rep.set("core.workspace_bytes", float64(ws), "at the largest plan footprint")
	rep.set("core.what_cache_bytes", float64(what), "at the largest plan footprint")
	if err := probeKernels(rep); err != nil {
		return err
	}

	tp, err := passP50(pass, cfg.seed, passTime(cfg))
	if err != nil {
		return err
	}
	t1, err := runChildProcess(cfg, "serial")
	if err != nil {
		return err
	}
	rep.set("sched.parallel_eff", t1/(float64(nproc())*tp),
		fmt.Sprintf("T1 %.3f ms (GOMAXPROCS=1 child) / (%d × T%d %.3f ms)", t1, nproc(), nproc(), tp))

	keys, err := buildKeys(w.geoms, cfg.seed, false)
	if err != nil {
		return err
	}
	if err := replay(rep, tr, keys, replayOrder(w, cfg)); err != nil {
		return err
	}
	self := tr.selfFracs(ph.root)
	rep.set("trace.self_frac", median(self), fmt.Sprintf("median over %d traced %ss", len(self), ph.root))
	if w.kind == library {
		if err := httpReplay(cfg, w, keys, ph); err != nil {
			return err
		}
	}
	serverMetrics(rep, ph.before, ph.after, ph.exchangeMS, ph.sent)
	if err := probeDispatch(rep, dispatchGeoms(w)); err != nil {
		return err
	}

	rep.set("host.gemm_gflops", env.gemmGFLOPS, "gemm.Gemm 256³, median of 9")
	q3, _ := percentile(ph.rates, 0.75)
	rep.set("core.gemm_peak_frac", q3/env.gemmGFLOPS, "upper-quartile closed-loop GFLOP/s of this run ÷ host.gemm_gflops")
	rep.set("core.flop_per_byte", flopPerByte(w.geoms), "computed from tensor sizes, not measured traffic")
	late, beyond := percentile(ph.lateMS, 0.9)
	rep.set("loadgen.late_ms_p90", late, fmt.Sprintf("n=%d, %d beyond", len(ph.lateMS), beyond))
	if w.kind == library {
		rep.set("check.mare_max", ph.mareMax, fmt.Sprintf("worst of %d layers vs float64 direct", len(w.geoms)))
		return nil
	}
	return probeMARE(rep, keys[:len(pass)])
}

// overheadFrac compares traced with untraced operations of the same key,
// since a serving workload's keys differ in cost: the median over keys that
// have both of (traced p50 ÷ untraced p50), minus one, and how many keys
// it spans. Each key's first operation is left out: on a server it is the
// plan-cache miss, far slower than the hits that follow.
func overheadFrac(ops []opSample) (float64, int) {
	type pair struct{ traced, untraced []float64 }
	byKey := map[int]*pair{}
	for _, o := range ops {
		p := byKey[o.key]
		if p == nil {
			byKey[o.key] = &pair{}
			continue
		}
		if o.traced {
			p.traced = append(p.traced, o.ms)
		} else {
			p.untraced = append(p.untraced, o.ms)
		}
	}
	var ratios []float64
	for _, p := range byKey {
		if len(p.traced) > 0 && len(p.untraced) > 0 {
			ratios = append(ratios, median(p.traced)/median(p.untraced))
		}
	}
	if len(ratios) == 0 { // too few repeats (smoke-test scale): pool every key
		return median(latencies(ops, true))/median(latencies(ops, false)) - 1, 0
	}
	return median(ratios) - 1, len(ratios)
}

// libraryNets returns the two library networks at the run's scale.
func libraryNets(short bool) [][]geom {
	div := 1
	if short {
		div = 16
	}
	return [][]geom{vgg16Layers(div), mobilenetDepthwise(div)}
}

// probeNet runs three traced steps of a network the workload does not time
// itself, so every layer has an exec time in every traced run.
func probeNet(net []geom, seed int64, tr *tracer) error {
	ls := newLibLayers(net, seed)
	if _, err := setupLibrary(ls); err != nil {
		return err
	}
	out := make([]*winrs.Tensor, len(ls))
	for i := 0; i < 3; i++ {
		step(ls, out, tr, "probe.step", i)
	}
	return nil
}

// passGeoms is the library pass a workload's probes time: its layers, or
// the leading keys of a serving workload's population.
func passGeoms(w workload) []geom {
	if w.kind == library {
		return w.geoms
	}
	return w.geoms[:min(w.passKeys, len(w.geoms))]
}

// dispatchGeoms is what the dispatch probe resolves: a library workload's
// layers, or the "auto" keys of the serving pass (all pass keys when none
// of them is "auto").
func dispatchGeoms(w workload) []geom {
	pass := passGeoms(w)
	if w.kind == library {
		return pass
	}
	var auto []geom
	for _, g := range pass {
		if g.auto {
			auto = append(auto, g)
		}
	}
	if len(auto) == 0 {
		return pass
	}
	return auto
}

// passP50 sets up a library pass over gs and returns the median wall time
// of at least five passes and minDur, in ms.
func passP50(gs []geom, seed int64, minDur time.Duration) (float64, error) {
	ls := newLibLayers(gs, seed)
	if _, err := setupLibrary(ls); err != nil {
		return 0, err
	}
	out := make([]*winrs.Tensor, len(ls))
	var ts []float64
	start := time.Now()
	for len(ts) < 5 || time.Since(start) < minDur && len(ts) < 200 {
		ts = append(ts, ms(step(ls, out, nil, "", 0)))
	}
	return median(ts), nil
}

// passTime is how long passP50 measures at least: long enough for a stable
// median, shorter at smoke-test scale.
func passTime(cfg config) time.Duration {
	if cfg.short {
		return 100 * time.Millisecond
	}
	return time.Second
}

// replayOrder is the request stream the in-process replay pushes through
// the server's stages, played twice so both plan-cache misses and hits
// occur: a library workload's layers, or the first requests of a serving
// workload's open loop.
func replayOrder(w workload, cfg config) []int {
	var once []int
	if w.kind == library {
		for k := range w.geoms {
			once = append(once, k)
		}
	} else {
		n := 50
		if cfg.short {
			n = 5
		}
		for i := 0; i < n; i++ {
			once = append(once, keyAt(cfg.seed, streamKeys, i, len(w.geoms)))
		}
	}
	return append(once, once...)
}

// httpReplay gives a library workload a server-side view: a fresh
// winrs-serve process is sent the layer list three times over one
// connection, bracketed by /metrics snapshots. The responses' bytes are
// checked against the library like any served result.
func httpReplay(cfg config, w workload, keys []*keyData, ph *phase) error {
	srv, err := startServer(cfg.serveBin)
	if err != nil {
		return err
	}
	defer srv.stop()
	r := &servingRun{w: w, keys: keys, seed: cfg.seed, hc: newHTTPClient(1), url: srv.url, first: map[int][]byte{}}
	defer r.hc.CloseIdleConnections()
	if ph.before, err = srv.scrape(r.hc); err != nil {
		return err
	}
	var buf bytes.Buffer
	for pass := 0; pass < 3; pass++ {
		for k := range keys {
			t0 := time.Now()
			r.attempted.Add(1)
			r.do(k, &buf, nil)
			ph.exchangeMS = append(ph.exchangeMS, ms(time.Since(t0)))
		}
	}
	if ph.after, err = srv.scrape(r.hc); err != nil {
		return err
	}
	ph.sent = r.attempted.Load()
	bad := r.checkFirst()
	ph.attempted += r.attempted.Load()
	ph.failed += r.failed.Load() + bad
	return nil
}
