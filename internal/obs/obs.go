// Package obs is the zero-dependency observability layer shared by the
// WinRS library and the winrs-serve daemon.
//
// It has two halves:
//
//   - A per-stage trace recorder (trace.go): lock-free atomic counters plus
//     striped duration histograms for the six pipeline stages of one
//     gradient computation — the fused segment-tile unit, and nested in it
//     the Winograd transforms, the element-wise multiplication (EWM) and
//     the output-transform epilogue; the Ŵ-cache fill (what_transform);
//     and the Kahan bucket reduction. Recording is gated by a package-level
//     switch so the disabled path costs one atomic load per execution and
//     zero allocations; internal/core hooks it into execute, the one
//     execution path behind every BFC entry point.
//
//   - A metrics registry (registry.go): process- or server-scoped counters,
//     gauges and histograms with p50/p90/p99 quantiles, exported in
//     Prometheus text format. internal/serve builds its request stats on
//     it, and the Default registry carries process-wide runtime gauges.
//
// The package imports only the standard library and is safe for concurrent
// use throughout: writers never block, and readers take approximate
// snapshots, which is all a metrics surface needs.
package obs

import (
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

// Histogram geometry shared by the trace recorder and registry histograms:
// geometric buckets with ~25% relative resolution. Bucket 0's upper bound
// is 32ns; 96 buckets cover 32ns…≈50s, wide enough for both a single
// transform panel and a worst-case request.
const (
	histBuckets = 96
	histBaseNS  = 32.0 // bucket 0 upper bound, nanoseconds
	histRatio   = 1.25 // geometric growth per bucket
)

var histLogRatio = math.Log(histRatio)

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= histBaseNS {
		return 0
	}
	i := int(math.Ceil(math.Log(ns/histBaseNS) / histLogRatio))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBoundSeconds returns bucket i's upper bound in seconds.
func histBoundSeconds(i int) float64 {
	return histBaseNS * math.Pow(histRatio, float64(i)) / 1e9
}

// hist is a striped, lock-free duration histogram. Counts are split over
// stripes so concurrent workers recording the same stage do not ping-pong
// one cache line; a reader folds the stripes into a snapshot.
const histStripes = 8

type hist struct {
	stripes [histStripes]histStripe
}

// histStripe is padded to its own cache lines.
type histStripe struct {
	counts [histBuckets]atomic.Uint64
	_      [64]byte
}

// stripeIndex picks a stripe from the address of a stack variable: distinct
// goroutines run on distinct stacks (allocated well over 1KiB apart), so
// concurrent recorders disperse across stripes at the cost of two
// arithmetic ops — no shared counter, no runtime hooks.
func stripeIndex() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (histStripes - 1)
}

func (h *hist) record(d time.Duration) {
	h.stripes[stripeIndex()].counts[histBucket(d)].Add(1)
}

// snapshot folds the stripes into one per-bucket count vector and total.
func (h *hist) snapshot() (counts [histBuckets]uint64, total uint64) {
	for s := range h.stripes {
		for i := range counts {
			c := h.stripes[s].counts[i].Load()
			counts[i] += c
			total += c
		}
	}
	return counts, total
}

// reset zeroes all stripes. Concurrent records may survive a reset; that is
// acceptable for a stats surface.
func (h *hist) reset() {
	for s := range h.stripes {
		for i := range h.stripes[s].counts {
			h.stripes[s].counts[i].Store(0)
		}
	}
}

// quantileOf returns the approximate q-quantile (upper bucket bound, in
// seconds) of a folded snapshot with the given total.
func quantileOf(counts *[histBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			return histBoundSeconds(i)
		}
	}
	return histBoundSeconds(histBuckets - 1)
}
