// Package cpufeat reports the instruction-set extensions that the host CPU
// implements and the operating system enables, detected once at start-up.
// The SIMD kernels of internal/core, internal/winograd, internal/kahan and
// internal/fp16 read it to choose between their assembly bodies and the
// portable Go loops.
package cpufeat

// HasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches. Package initialization sets it, and
// it is always false off amd64. The only other writers are the test hooks
// that clear it so the suites run the Go loops on an AVX2 host.
var HasAVX2 = detectAVX2()

// HasF16C reports whether the CPU implements the F16C conversions
// (VCVTPS2PH, VCVTPH2PS) and the OS saves the YMM registers their 8-lane
// forms use. Set like HasAVX2, and cleared by the same test hook.
var HasF16C = detectF16C()
