// Command bench is the repository's end-to-end benchmark. It drives the
// system only through its public entry points — winrs.NewPlan /
// Plan.Execute / Plan.ExecuteHalf as a training loop calls them, and the
// real winrs-serve binary over loopback HTTP — checks every result, and
// prints one JSON result line last.
//
//	bash bench/run.sh --workload vgg16-fp32 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --workload dw-fp16 --seed 1 --seconds 20 --runs 10
//
// --trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes the span file (--spans). --runs k launches k fresh processes
// with seeds seed…seed+k−1 and prints each metric's median and quartile
// spread. See README.md for the workloads, metrics and span format.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"winrs"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	serveBin string
	runs     int
	short    bool
	child    string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: vgg16-fp32, dw-fp16, serve-hot or serve-churn")
	fs.Int64Var(&c.seed, "seed", 1, "seed for operand values, arrival times and key order")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run and write the span file")
	fs.StringVar(&c.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	fs.StringVar(&c.serveBin, "serve-bin", ".bench_build/bin/winrs-serve", "winrs-serve binary for the serving workloads")
	fs.IntVar(&c.runs, "runs", 0, "repeatability mode: this many fresh launches with consecutive seeds")
	fs.BoolVar(&c.short, "short", false, "smoke-test scale: tiny geometries, same code paths")
	fs.StringVar(&c.child, "child", "", "internal: run one measurement in a fresh process (setup, serial)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	if c.spans == "" {
		c.spans = defaultSpans(c.workload, c.seed)
	}
	return c, nil
}

func defaultSpans(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", workload, seed))
}

// args renders c back into flags, for the processes the benchmark launches.
func (c config) args() []string {
	a := []string{"--workload", c.workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--serve-bin", c.serveBin}
	if c.trace {
		a = append(a, "--trace", "1", "--spans", c.spans)
	}
	if c.short {
		a = append(a, "--short")
	}
	return a
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if cfg.short {
		w = w.shrink()
	}
	switch {
	case cfg.child != "":
		err = runChild(cfg, w, stdout)
	case cfg.runs > 0:
		err = repeat(cfg, stdout)
	default:
		var res result
		res, err = runOnce(cfg, w, stdout)
		if err == nil {
			b, _ := json.Marshal(res)
			fmt.Fprintf(stdout, "%s\n", b)
			if !res.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func nproc() int { return runtime.NumCPU() }

// phase is what a workload's timed run hands to the metric computations.
type phase struct {
	attempted, failed int64
	setupS            []float64  // one per fresh set-up
	root              string     // root span whose self time the trace reports
	ops               []opSample // every library step or open-loop request
	// rates are the closed loop's throughput samples in direct-equivalent
	// GFLOP/s: one per untraced step, or one per second of the serving
	// closed loop.
	rates   []float64
	rssMB   float64
	lateMS  []float64 // generator lateness
	mareMax float64   // library: worst layer MARE from the oracle check

	// serving: /metrics at the open loop's start and end, the client-side
	// exchange time of each open-loop request, and how many were sent.
	before, after scrape
	exchangeMS    []float64
	sent          int64
}

// opSample is one timed operation: a library step or an open-loop request.
type opSample struct {
	ms     float64
	key    int // the request's key (0 for library steps)
	traced bool
}

// latencies returns the times of the untraced (traced=false) or traced
// operations.
func latencies(ops []opSample, traced bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.traced == traced {
			out = append(out, o.ms)
		}
	}
	return out
}

const setups = 7

func runOnce(cfg config, w workload, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(nproc())
	env := probeEnv()
	env.print(out, w.name, cfg.seed, cfg.trace)
	var tr *tracer
	defs := endToEnd
	if cfg.trace {
		tr, defs = newTracer(), perLayer
	}
	rep := newReport(out, defs)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var ph phase
	var err error
	if w.kind == library {
		err = runLibrary(cfg, w, tr, budget, &ph)
	} else {
		err = runServing(cfg, w, tr, budget, &ph)
	}
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		err = traceMetrics(cfg, w, env, tr, &ph, rep)
	} else {
		err = endToEndMetrics(w, ph, rep)
	}
	if err != nil {
		return result{}, err
	}
	if err := rep.complete(); err != nil {
		return result{}, err
	}
	if tr != nil {
		tr.summary(out)
		if err := tr.write(cfg.spans, w.name, cfg.seed); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "# spans written to %s\n", cfg.spans)
	}
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: rep.metrics}, nil
}

// runLibrary measures a library workload: seven set-ups, each in a fresh
// child process, then the timed closed loop in this process.
func runLibrary(cfg config, w workload, tr *tracer, budget time.Duration, ph *phase) error {
	ph.root = "step"
	for i := 0; i < nSetups(cfg); i++ {
		s, err := runChildProcess(cfg, "setup")
		if err != nil {
			return err
		}
		ph.setupS = append(ph.setupS, s)
	}
	ls := newLibLayers(w.geoms, cfg.seed)
	if _, err := setupLibrary(ls); err != nil {
		return err
	}
	out := make([]*winrs.Tensor, len(ls))
	for i := 0; i < 2; i++ { // with the set-up's step, three warm-up steps
		step(ls, out, nil, "", 0)
	}
	least := minSteps
	switch {
	case cfg.short:
		least = 3
	case cfg.trace:
		least = minSamples(w.tail)
	}
	r, err := runLibraryTimed(ls, cfg.seed, budget, least, tr)
	if err != nil {
		return err
	}
	ph.attempted, ph.failed = r.attempted, r.failed
	ph.lateMS, ph.rssMB, ph.mareMax = r.gapsMS, r.rssMB, r.mareMax
	for i, d := range r.stepMS {
		ph.ops = append(ph.ops, opSample{ms: d, traced: r.traced[i]})
		if !r.traced[i] {
			ph.rates = append(ph.rates, float64(flops(w.geoms))/d/1e6)
		}
	}
	return nil
}

// minSteps is the fewest steps a library run reports from: its
// latency_ms_p10 is then at worst the second-fastest step. A traced run
// instead runs until its tail has ten steps beyond it.
const minSteps = 20

func nSetups(cfg config) int {
	if cfg.short {
		return 2
	}
	return setups
}

// runServing measures one winrs-serve process. Set-up is timed over seven
// fresh launches (exec → /healthz 200 → one request per hot key); the last
// launch is the one measured. The timed phase is an open loop at w.rate
// for 40% of the budget, then a closed loop of nproc back-to-back senders
// for 60%, whose per-second throughput samples are the noisier of the two.
func runServing(cfg config, w workload, tr *tracer, budget time.Duration, ph *phase) error {
	// The open loop's request spans are partitioned by the client's own
	// boundaries, so the self-time check uses the in-process replay, whose
	// children are the server's stages.
	ph.root = "replay.request"
	// Both serving workloads warm up on the hot keys, appended after the
	// population the timed phase draws from, so set-up measures the same
	// thing on both: exec to the first response of each hot key.
	keys, err := buildKeys(append(w.geoms[:len(w.geoms):len(w.geoms)], hotKeys()...), cfg.seed, w.checkEvery)
	if err != nil {
		return err
	}
	r := &servingRun{w: w, keys: keys, seed: cfg.seed, tr: tr, first: map[int][]byte{}}
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < nSetups(cfg); i++ {
		if srv != nil {
			r.hc.CloseIdleConnections()
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.serveBin); err != nil {
			return err
		}
		r.hc, r.url = newHTTPClient(nproc()), srv.url
		if err := r.warmPass(); err != nil {
			return err
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	}
	if tr != nil {
		if ph.before, err = srv.scrape(r.hc); err != nil {
			return err
		}
	}
	open := r.openLoop(budget * 4 / 10)
	ph.sent = r.attempted.Load()
	if tr != nil {
		if ph.after, err = srv.scrape(r.hc); err != nil {
			return err
		}
	}
	for i, s := range open {
		ph.ops = append(ph.ops, opSample{ms: s.latMS, key: keyAt(cfg.seed, streamKeys, i, len(w.geoms)), traced: s.traced})
		ph.lateMS = append(ph.lateMS, s.lateMS)
		ph.exchangeMS = append(ph.exchangeMS, s.exchangeMS)
	}
	if late, _ := percentile(ph.lateMS, 0.9); late > 1 {
		fmt.Fprintf(os.Stderr, "# WARNING: generator lateness p90 %.3f ms exceeds 1 ms; open-loop latencies include generator delay\n", late)
	}
	ph.rates = r.closedLoop(budget * 6 / 10)
	if ph.rssMB, err = vmHWM(srv.pid()); err != nil {
		return err
	}
	r.hc.CloseIdleConnections()
	srv.stop()
	srv = nil
	bad := r.checkFirst()
	ph.attempted, ph.failed = r.attempted.Load(), r.failed.Load()+bad
	return nil
}

// endToEndMetrics reports the end-to-end metrics. The host's speed swings
// by up to 2× for tens of seconds at a time (see README.md), so the gated
// timings are fast-side statistics, which such swings move least: the 10th
// percentile of operation latency and the upper quartile of closed-loop
// throughput. The median and tail are printed beside them and reported by
// traced runs.
func endToEndMetrics(w workload, ph phase, rep *report) error {
	rep.set("setup_s", median(ph.setupS), fmt.Sprintf("median of %d fresh set-ups", len(ph.setupS)))
	op := "step"
	if w.kind == serving {
		op = "request"
	}
	lat := latencies(ph.ops, false)
	p10, _ := percentile(lat, 0.1)
	tail, beyond := percentile(lat, w.tail)
	rep.set("latency_ms_p10", p10, fmt.Sprintf("n=%d %ss; p50 %.4g, p%g %.4g (%d beyond)",
		len(lat), op, median(lat), 100*w.tail, tail, beyond))
	q3, _ := percentile(ph.rates, 0.75)
	rep.set("gflops", q3, fmt.Sprintf("upper quartile of %d closed-loop samples; mean %.4g", len(ph.rates), mean(ph.rates)))
	total, _, _, err := workspaceBytes(w.geoms)
	if err != nil {
		return err
	}
	rep.set("workspace_mb", float64(total)/(1<<20), fmt.Sprintf("max over %d geometries", len(w.geoms)))
	who := "bench process"
	if w.kind == serving {
		who = "winrs-serve"
	}
	rep.set("rss_peak_mb", ph.rssMB, "VmHWM of "+who)
	return nil
}

// runChild is the body of a child process: one fresh-process measurement
// printed as a JSON line. "setup" times a library workload's set-up in
// seconds; "serial" times the workload's library pass at GOMAXPROCS=1, in
// ms.
func runChild(cfg config, w workload, out io.Writer) error {
	var v float64
	switch cfg.child {
	case "setup":
		runtime.GOMAXPROCS(nproc())
		d, err := setupLibrary(newLibLayers(w.geoms, cfg.seed))
		if err != nil {
			return err
		}
		v = d.Seconds()
	case "serial":
		runtime.GOMAXPROCS(1)
		ms, err := passP50(passGeoms(w), cfg.seed, passTime(cfg))
		if err != nil {
			return err
		}
		v = ms
	default:
		return fmt.Errorf("unknown --child %q", cfg.child)
	}
	return json.NewEncoder(out).Encode(map[string]float64{"value": v})
}

// runChildProcess launches this program as a child for one measurement and
// returns the value it prints.
func runChildProcess(cfg config, what string) (float64, error) {
	out, err := launchSelf(append(cfg.args(), "--child", what))
	if err != nil {
		return 0, fmt.Errorf("child %s: %w", what, err)
	}
	var v struct{ Value float64 }
	if err := json.Unmarshal(lastLine(out), &v); err != nil {
		return 0, fmt.Errorf("child %s output: %w", what, err)
	}
	return v.Value, nil
}

// childEnv marks a process as launched by the benchmark itself, so a test
// binary standing in for the benchmark runs main instead of its tests.
const childEnv = "WINRS_BENCH_CHILD"

// launchSelf runs this executable with args, waits for it, and returns its
// standard output; its standard error passes through.
func launchSelf(args []string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return buf.Bytes(), fmt.Errorf("%v (output: %.500s)", err, buf.String())
	}
	return buf.Bytes(), nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// repeat is the repeatability mode: k fresh launches with seeds
// seed…seed+k−1, then each metric's median, quartiles and quartile spread
// as a share of the median — the figure a metric's bound is set from.
func repeat(cfg config, out io.Writer) error {
	probeEnv().print(out, cfg.workload, cfg.seed, cfg.trace)
	vals := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < cfg.runs; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		c.spans = defaultSpans(c.workload, c.seed)
		t0 := time.Now()
		b, err := launchSelf(c.args())
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, c.seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(b), &res); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i+1, c.seed, res.Failed, res.Attempted)
		}
		fmt.Fprintf(out, "# run %d seed %d: %.1fs wall", i+1, c.seed, time.Since(t0).Seconds())
		runNames := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			runNames = append(runNames, name)
		}
		sortByDecl(runNames)
		for _, name := range runNames {
			if _, ok := vals[name]; !ok {
				names = append(names, name)
			}
			vals[name] = append(vals[name], res.Metrics[name].Value)
			units[name] = res.Metrics[name].Unit
			if len(runNames) <= len(endToEnd) {
				fmt.Fprintf(out, " %s=%.4g", name, res.Metrics[name].Value)
			}
		}
		fmt.Fprintln(out)
	}
	if len(names) == 0 {
		return errors.New("no runs")
	}
	sortByDecl(names)
	fmt.Fprintf(out, "%-44s %-9s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr/med")
	summary := map[string]map[string]float64{}
	for _, n := range names {
		med := median(vals[n])
		q1, q3 := quartiles(vals[n])
		spread := (q3 - q1) / med
		fmt.Fprintf(out, "%-44s %-9s %14.6g %14.6g %14.6g %8.4f\n", n, units[n], med, q1, q3, spread)
		summary[n] = map[string]float64{"median": med, "q1": q1, "q3": q3, "spread": spread}
	}
	b, _ := json.Marshal(map[string]any{"workload": cfg.workload, "runs": cfg.runs, "metrics": summary})
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// sortByDecl orders metric names as they are declared.
func sortByDecl(names []string) {
	pos := map[string]int{}
	for i, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		pos[d.name] = i
	}
	sort.SliceStable(names, func(i, j int) bool { return pos[names[i]] < pos[names[j]] })
}
