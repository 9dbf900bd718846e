// Command winrs-bench regenerates every table and figure of the WinRS
// paper's evaluation (§6) on the repository's substrates: analytic
// workspace accounting (Table 2, Fig 9), the GPU execution-time simulator
// (Table 3, Figs 10–11), and real numeric execution (Table 4, Fig 12),
// plus the motivation figures (Figs 2, 5, 6) and the design ablations.
//
// Usage:
//
//	winrs-bench -exp all
//	winrs-bench -exp table3
//	winrs-bench -list
//	winrs-bench -json BENCH_2026-08-05.json
//	winrs-bench -compare -threshold 0.15 BENCH_old.json BENCH_new.json
//
// Each experiment prints paper-style rows; EXPERIMENTS.md records the
// paper-vs-measured comparison. -json measures the fixed regression grid
// (WinRS FP32/FP16 vs im2col+GEMM and direct) into a schema-versioned
// report, and -compare diffs two reports, exiting 1 when a hot-path
// result regressed beyond -threshold after calibration normalization —
// the CI bench gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

type experiment struct {
	name string
	desc string
	run  func()
}

var experiments = []experiment{
	{"fig2", "Block counts of VGG16 conv2: FC/BDC vs BFC starvation", runFig2},
	{"fig5", "Fastest kernel-pair selection examples", runFig5},
	{"fig6", "The 13 WinRS kernel variants", runFig6},
	{"table2", "Algorithm workspace over the paper sweep", runTable2},
	{"fig9", "WinRS workspace and segment count vs dimensions (3x3)", runFig9},
	{"table3", "WinRS speedup over cuDNN algorithms (simulated)", runTable3},
	{"fig10", "FP32 throughput series on RTX 4090 and RTX 3090", runFig10},
	{"fig11", "FP16 throughput series on L40S, RTX 4090, RTX A5000", runFig11},
	{"table4", "MARE accuracy vs FP64 ground truth (real execution)", runTable4},
	{"fig12", "FP16 MARE vs dimensions and accumulation length", runFig12},
	{"fig13", "Training loss: exact vs WinRS gradients (compact run)", runFig13},
	{"ablation1d2d", "Eq. (3)/(4): 1-D vs 2-D acceleration and intensity", runAblation1D2D},
	{"ablationseg", "Adaptive segmentation vs fixed Z (simulated)", runAblationSeg},
	{"ablationkahan", "Kahan vs naive bucket reduction (real execution)", runAblationKahan},
	{"ablationclip", "Height-axis clipping saving (Fig 7)", runAblationClip},
	{"relatedwork", "WinRS vs Im2col-Winograd (fixed distribution)", runRelatedWork},
	{"vgg16", "Per-layer VGG16 BFC comparison (simulated)", runVGG16},
	{"extensions", "The §8 roadmap: BF16/FP8/INT8, FC/BDC, 3-D BFC", runExtensions},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	jsonOut := flag.String("json", "", "write the regression-grid benchmark report to this file ('-' for stdout)")
	saturate := flag.String("saturate", "", "measure in-process serving saturation and merge the \"inproc\" row into this bench report ('-' for stdout)")
	compare := flag.Bool("compare", false, "compare two benchmark reports: -compare OLD.json NEW.json")
	threshold := flag.Float64("threshold", 0.15, "relative regression tolerance for -compare")
	matchProcs := flag.String("match-procs", "", "pin GOMAXPROCS to the value recorded in this baseline report before measuring (-json)")
	flag.Parse()

	if *matchProcs != "" {
		if err := pinProcsToBaseline(*matchProcs); err != nil {
			fmt.Fprintf(os.Stderr, "winrs-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: winrs-bench -compare [-threshold 0.15] OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runBenchCompare(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		if err := runBenchJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "winrs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *saturate != "" {
		if err := runSaturate(*saturate); err != nil {
			fmt.Fprintf(os.Stderr, "winrs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}
	names := map[string]experiment{}
	for _, e := range experiments {
		names[e.name] = e
	}
	if *exp == "all" {
		for _, e := range experiments {
			fmt.Printf("\n######## %s — %s\n", e.name, e.desc)
			e.run()
		}
		return
	}
	e, ok := names[*exp]
	if !ok {
		var known []string
		for n := range names {
			known = append(known, n)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", *exp, known)
		os.Exit(2)
	}
	e.run()
}
