// Package cpufeat reports the instruction-set extensions that the host CPU
// implements and the operating system enables, detected once at start-up.
// The SIMD kernels of internal/core and internal/kahan read it to choose
// between their assembly bodies and the portable Go loops.
package cpufeat

// HasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches. Package initialization sets it, and
// it is always false off amd64. The only other writer is the test hook
// that clears it so the suites run the Go loops on an AVX2 host.
var HasAVX2 = detectAVX2()
