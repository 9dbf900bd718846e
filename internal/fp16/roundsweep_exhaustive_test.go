//go:build exhaustive

package fp16

// roundSweepStride sweeps every float32 pattern.
const roundSweepStride = 1
