package main

import (
	"fmt"
	"math/rand"

	"winrs"
)

// geom is one convolution the benchmark runs: a library layer, or a plan
// key the server is asked for.
type geom struct {
	name string
	p    winrs.Params
	fp16 bool // binary16 operands (Plan.ExecuteHalf / dtype "f16")
	auto bool // request carries "algo":"auto" (cost-model dispatch)
}

type kind int

const (
	library kind = iota // closed loop through winrs.NewPlan / Plan.Execute[Half]
	serving             // open + closed loop against a winrs-serve process
)

// workload is one fixed input set. The geometry lists are part of the
// definition, so every seed runs the same workload; the seed drives only
// operand values, arrival times and key order.
type workload struct {
	name string
	kind kind
	// geoms is one step's layers in call order (library) or the key
	// population requests draw from (serving).
	geoms []geom
	// tail is the high percentile reported as loop.latency_ms_tail. It is
	// fixed per workload so a faster build is compared on the same
	// percentile, and chosen so a traced run at the default length has at
	// least ten samples beyond it.
	tail float64
	// rate is the open-loop Poisson arrival rate in requests per second
	// (serving only). It is frozen at a quarter to a third of the
	// closed-loop capacity measured on the reference host at its usual
	// speed, so the server stays clear of saturation even when the host
	// runs at half speed: near saturation, queueing turns small host
	// slowdowns into large latency swings.
	rate float64
	// checkEvery compares every response with a library result computed up
	// front; otherwise each key's first response is checked after the run.
	checkEvery bool
	// passKeys is how many leading geoms form one library pass of a
	// serving workload (parallel-efficiency and dispatch probes).
	passKeys int
}

var workloads = []workload{
	{name: "vgg16-fp32", kind: library, geoms: vgg16Layers(1), tail: 0.75},
	{name: "dw-fp16", kind: library, geoms: mobilenetDepthwise(1), tail: 0.75},
	{name: "serve-hot", kind: serving, geoms: hotKeys(), tail: 0.99, rate: 150, passKeys: 4, checkEvery: true},
	{name: "serve-churn", kind: serving, geoms: churnPopulation(churnKeys), tail: 0.9, rate: 60, passKeys: 32},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// shrink returns the smoke-test version of w (-short): the same code paths
// on geometries small enough that all four workloads finish in seconds.
func (w workload) shrink() workload {
	switch w.name {
	case "vgg16-fp32":
		w.geoms = vgg16Layers(16)
	case "dw-fp16":
		w.geoms = mobilenetDepthwise(16)
	case "serve-churn":
		w.geoms = churnPopulation(64)
		w.passKeys = 8
	}
	return w
}

// vgg16Layers is the 13 VGG16 convolutions at N=1, spatial extent ÷4
// (56…3) and the true channel counts 3–512; div further divides the
// channel counts (1 for the benchmark, larger for smoke tests).
func vgg16Layers(div int) []geom {
	layers := []struct {
		name   string
		hw     int
		ic, oc int
	}{
		{"conv1_1", 56, 3, 64}, {"conv1_2", 56, 64, 64},
		{"conv2_1", 28, 64, 128}, {"conv2_2", 28, 128, 128},
		{"conv3_1", 14, 128, 256}, {"conv3_2", 14, 256, 256}, {"conv3_3", 14, 256, 256},
		{"conv4_1", 7, 256, 512}, {"conv4_2", 7, 512, 512}, {"conv4_3", 7, 512, 512},
		{"conv5_1", 3, 512, 512}, {"conv5_2", 3, 512, 512}, {"conv5_3", 3, 512, 512},
	}
	out := make([]geom, len(layers))
	for i, l := range layers {
		out[i] = geom{name: l.name, p: winrs.Params{N: 1, IH: l.hw, IW: l.hw, FH: 3, FW: 3,
			IC: max(1, l.ic/div), OC: max(1, l.oc/div), PH: 1, PW: 1}}
	}
	return out
}

// mobilenetDepthwise is the MobileNet-v1 depthwise trunk: nine 3×3 layers
// with G = C from 112²×32 to 7²×1024 at N=1, binary16 operands. The
// stride-2 layers run at their input extent with stride 1 (the FP16 path
// is stride-1 only).
func mobilenetDepthwise(div int) []geom {
	layers := []struct{ hw, c int }{
		{112, 32}, {112, 64}, {56, 128}, {56, 128}, {28, 256},
		{28, 256}, {14, 512}, {14, 512}, {7, 1024},
	}
	out := make([]geom, len(layers))
	for i, l := range layers {
		hw, c := l.hw, l.c
		if div > 1 {
			hw, c = max(4, hw/4), max(2, c/div)
		}
		out[i] = geom{name: fmt.Sprintf("dw%d", i+1), fp16: true, p: winrs.Params{N: 1, IH: hw, IW: hw,
			FH: 3, FW: 3, IC: c, OC: c, PH: 1, PW: 1, Groups: c}}
	}
	return out
}

// hotKeys is serve-hot's key set: 33–200 KB payloads whose compute is a
// few milliseconds, so decode, dispatch, plan-cache hits and HTTP carry a
// large share of each request.
func hotKeys() []geom {
	return []geom{
		{name: "f32_28x28x32_3x3", p: winrs.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1}},
		{name: "f16_14x14x64_3x3", fp16: true, p: winrs.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}},
		{name: "f32_n2_16x16x8_5x5", p: winrs.Params{N: 2, IH: 16, IW: 16, FH: 5, FW: 5, IC: 8, OC: 8, PH: 2, PW: 2}},
		{name: "f16_28x28x32_dw", fp16: true, p: winrs.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1, Groups: 32}},
	}
}

// churnKeys is serve-churn's population size: four times the server's
// default 256-plan cache, so about three requests in four miss.
const churnKeys = 1024

// churnPopulation draws n distinct plan keys from a fixed generator (the
// population is part of the workload, not of the seed): N∈{1,2},
// H=W∈[8,40], F∈{2,3,5,7}, C∈[4,32], one in eight depthwise, one in three
// binary16 and one in two with "algo":"auto".
func churnPopulation(n int) []geom {
	rng := rand.New(rand.NewSource(1024))
	type key struct {
		p          winrs.Params
		fp16, auto bool
	}
	seen := make(map[key]bool, n)
	out := make([]geom, 0, n)
	filters := []int{2, 3, 5, 7}
	for len(out) < n {
		h := 8 + rng.Intn(33)
		f := filters[rng.Intn(len(filters))]
		p := winrs.Params{N: 1 + rng.Intn(2), IH: h, IW: h, FH: f, FW: f,
			IC: 4 + rng.Intn(29), OC: 4 + rng.Intn(29), PH: (f - 1) / 2, PW: (f - 1) / 2}
		if rng.Intn(8) == 0 {
			p.OC, p.Groups = p.IC, p.IC
		}
		k := key{p: p, fp16: rng.Intn(3) == 0, auto: rng.Intn(2) == 0}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, geom{name: fmt.Sprintf("k%04d", len(out)), p: p, fp16: k.fp16, auto: k.auto})
	}
	return out
}

// flops returns the direct-equivalent FLOPs of one pass over gs.
func flops(gs []geom) int64 {
	var f int64
	for _, g := range gs {
		f += g.p.FLOPs()
	}
	return f
}

// seeded returns a deterministic random stream for one purpose of one run:
// the same (seed, stream) always yields the same sequence, and distinct
// streams do not share values.
func seeded(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// Random streams of a run.
const (
	streamOperands int64 = iota + 1
	streamArrivals
	streamKeys
	streamClosedKeys
	streamTraced
)

// traced is the seeded coin that picks which steps or requests of a traced
// run record spans; the others are the untraced baseline.
func traced(seed int64, i int) bool { return keyAt(seed, streamTraced, i, 2) == 1 }
