// Quickstart: compute one backward-filter convolution with WinRS and check
// it against the exact reference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"winrs"
)

func main() {
	// A typical mid-network training layer: batch 8, 32×32 feature maps,
	// 16 channels, 3×3 filters with same padding.
	p := winrs.Params{
		N: 8, IH: 32, IW: 32,
		FH: 3, FW: 3,
		IC: 16, OC: 16,
		PH: 1, PW: 1,
	}

	rng := rand.New(rand.NewSource(1))
	x := winrs.NewTensor(p.XShape())   // input feature maps, NHWC
	dy := winrs.NewTensor(p.DYShape()) // output gradients, NHWC
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)

	// One-shot API: configuration adaptation + fused execution.
	dw, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter gradients: %v (O_C x F_H x F_W x I_C)\n", dw.Shape)

	// A reusable plan exposes what the adaptation chose.
	plan, err := winrs.NewPlan(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel pair:      %s\n", plan.KernelPair())
	fmt.Printf("segments (Z):     %d\n", plan.Segments())
	fmt.Printf("workspace:        %d bytes (gradient buckets beyond the result)\n",
		plan.WorkspaceBytes())

	// Validate against the float64 direct-convolution ground truth.
	mare := winrs.MARE(dw, winrs.Reference(p, x, dy))
	fmt.Printf("MARE vs FP64:     %.3g (paper band for FP32: ~1e-7)\n", mare)
}
