// Command winrs-info explains what WinRS's configuration adaptation
// decides for one convolutional layer: the fastest kernel pair, the
// segment count and grid, the workspace, and the modelled GPU comparison
// against the cuDNN-style baselines.
//
// Usage:
//
//	winrs-info -n 32 -hw 224 -f 3 -c 64
//	winrs-info -n 32 -hw 56 -f 5 -c 256 -fp16 -gpu l40s
//	winrs-info -dispatch -n 1 -hw 32 -f 3 -c 8   # host backend ranking
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"winrs/internal/backend"
	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/gpusim"
	"winrs/internal/perfmodel"
	"winrs/internal/report"
)

func main() {
	n := flag.Int("n", 32, "batch size")
	hw := flag.Int("hw", 224, "square input height/width")
	ih := flag.Int("ih", 0, "input height (overrides -hw)")
	iw := flag.Int("iw", 0, "input width (overrides -hw)")
	f := flag.Int("f", 3, "square filter size")
	fh := flag.Int("fh", 0, "filter height (overrides -f)")
	fw := flag.Int("fw", 0, "filter width (overrides -f)")
	c := flag.Int("c", 64, "channels (IC = OC)")
	ic := flag.Int("ic", 0, "input channels (overrides -c)")
	oc := flag.Int("oc", 0, "output channels (overrides -c)")
	groups := flag.Int("groups", 1, "channel groups (IC and OC must divide; IC = depthwise)")
	fp16 := flag.Bool("fp16", false, "FP16 Tensor-Core path")
	gpu := flag.String("gpu", "4090", "device model: 4090, 3090, l40s, a5000")
	asJSON := flag.Bool("json", false, "emit the plan description as JSON")
	dispatch := flag.Bool("dispatch", false, "print the host backend ranking (per-backend workspace + predicted time) instead of the GPU plan")
	procs := flag.Int("procs", 0, "worker count the dispatch prediction assumes (0 = GOMAXPROCS)")
	flag.Parse()

	p := conv.Params{N: *n, IH: pick(*ih, *hw), IW: pick(*iw, *hw),
		FH: pick(*fh, *f), FW: pick(*fw, *f),
		IC: pick(*ic, *c), OC: pick(*oc, *c), Groups: *groups}
	p.PH, p.PW = p.FH/2, p.FW/2
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dispatch {
		if err := runDispatch(p, *fp16, *procs, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	d, err := device(*gpu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := []core.Option{core.WithHardware(core.Hardware{NSM: d.NSM})}
	if *fp16 {
		opts = append(opts, core.WithFP16())
	}
	cfg, err := core.Configure(p, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("layer              %v\n", p)
	fmt.Printf("dY dimensions      %d:%d:%d:%d (N:OH:OW:OC)\n", p.N, p.OH(), p.OW(), p.OC)
	fmt.Printf("direct complexity  %.2f GFLOPs\n", float64(p.FLOPs())/1e9)
	fmt.Printf("data size          %.1f MB\n", float64(p.DataBytes32())/(1<<20))
	fmt.Println()
	fmt.Printf("kernel pair        %s\n", cfg.Pair)
	fastW, residW := cfg.Pair.Coverage()
	fmt.Printf("width split        %d columns fast + %d residual\n", fastW, residW)
	fmt.Printf("segment target     %d (Algorithm 1)\n", cfg.ZTarget)
	fmt.Printf("segment shape      %dx%d (Algorithm 2)\n", cfg.SegH, cfg.SegW)
	desc := cfg.Describe()
	merged := ""
	if desc.ResidualMerged {
		merged = "; residual units run inside the fast units"
	}
	fmt.Printf("segments realized  %d (buckets: %d%s)\n", cfg.Z(), desc.Buckets, merged)
	if p.G() > 1 {
		depthwise := p.ICG() == 1 && p.OCG() == 1
		fmt.Printf("groups             %d (%d ic x %d oc per group; depthwise=%v)\n",
			p.G(), p.ICG(), p.OCG(), depthwise)
		grid := "dense"
		if depthwise {
			grid = "channel-wide"
		}
		fmt.Printf("workspace          %.3f MB ((buckets-1) x dW; %d %s units, channel block %d)\n",
			float64(cfg.WorkspaceBytes())/(1<<20), desc.Units, grid, desc.ChannelBlock)
		// The paper's headline quantity under grouping: a grouped dW is G
		// times smaller, so at the grouped plan's Z the workspace is G
		// times below the ungrouped layer's, (Z-1) x its dW. Configuring
		// the ungrouped plan instead could realize another Z.
		pu := p
		pu.Groups = 0
		if ub := int64(cfg.Z()-1) * int64(pu.DWShape().Elems()) * 4; ub > 0 {
			fmt.Printf("  vs ungrouped     %.3f MB at equal Z (%d) — %.1fx smaller\n",
				float64(ub)/(1<<20), cfg.Z(), float64(ub)/float64(maxI64(1, cfg.WorkspaceBytes())))
		}
	} else {
		fmt.Printf("workspace          %.2f MB ((buckets-1) x dW; %d dense units, channel block %d)\n",
			float64(cfg.WorkspaceBytes())/(1<<20), desc.Units, desc.ChannelBlock)
	}
	fmt.Printf("what cache         %.2f MB (transformed-dY reuse, <= (max a/r) x dY)\n",
		float64(cfg.WHatCacheBytes())/(1<<20))
	fmt.Printf("ewm kernel         %s (host kernel-tier selection)\n", cfg.EWMKernel())
	fmt.Printf("total blocks       %d on %d SMs\n", desc.TotalBlocks, d.NSM)

	fmt.Println()
	t := report.NewTable(fmt.Sprintf("modelled comparison on %s", d.Name),
		"algorithm", "time ms", "TFLOPS", "workspace MB")
	addPlan := func(pl gpusim.Plan) {
		tt := d.Time(pl)
		t.AddRow(pl.Algorithm, tt*1e3,
			gpusim.ThroughputTFLOPS(p.FLOPs(), tt),
			float64(pl.WorkspaceBytes)/(1<<20))
	}
	wPlan, _, err := perfmodel.WinRS(p, d, *fp16)
	if err == nil {
		addPlan(wPlan)
	}
	addPlan(perfmodel.CuGEMM(p, d, *fp16))
	if !*fp16 {
		addPlan(perfmodel.FFT(p))
	}
	if nf, ok := perfmodel.WinNF(p, *fp16); ok {
		addPlan(nf)
	}
	t.Write(os.Stdout)
}

// runDispatch prints what the host dispatcher would decide for the layer:
// every eligible backend's workspace and cost-model prediction, sorted
// fastest-first (measurement refinement is a serve-time concern and is not
// run here — this is the pure prediction winrs-serve starts from).
func runDispatch(p conv.Params, fp16 bool, procs int, asJSON bool) error {
	prec := backend.FP32
	if fp16 {
		prec = backend.FP16
	}
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	d, err := backend.Default().Dispatch(p, prec, backend.Options{Procs: procs, Measure: false})
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	fmt.Printf("layer              %v\n", p)
	fmt.Printf("precision          %v\n", prec)
	fmt.Printf("procs assumed      %d\n", procs)
	fmt.Printf("dispatch choice    %s\n", d.Backend)
	fmt.Println()
	t := report.NewTable("host backend ranking (cost-model prediction)",
		"rank", "backend", "workspace MB", "predicted ms")
	for i, c := range d.Candidates {
		t.AddRow(i+1, c.Name, float64(c.WorkspaceBytes)/(1<<20), c.PredictedNs/1e6)
	}
	t.Write(os.Stdout)
	for _, b := range backend.Default().Backends() {
		if !b.Supports(p, prec) {
			fmt.Printf("ineligible         %s (unsupported at %v)\n", b.Name(), prec)
		}
	}
	return nil
}

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func device(name string) (gpusim.Device, error) {
	switch strings.ToLower(name) {
	case "4090", "rtx4090":
		return gpusim.RTX4090, nil
	case "3090", "rtx3090":
		return gpusim.RTX3090, nil
	case "l40s":
		return gpusim.L40S, nil
	case "a5000", "rtxa5000":
		return gpusim.RTXA5000, nil
	}
	return gpusim.Device{}, fmt.Errorf("unknown device %q (4090, 3090, l40s, a5000)", name)
}
