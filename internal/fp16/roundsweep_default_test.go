//go:build !exhaustive

package fp16

// roundSweepStride samples every 251st float32 pattern (about 17 million,
// every residue of the 13 rounded-off mantissa bits); the exhaustive build
// tag sweeps all 2^32.
const roundSweepStride = 251
