package tensor

import (
	"fmt"
	"unsafe"
)

// maxUnclearedBytes bounds the allocations NewFloat32Uncleared hands to
// the runtime's allocator itself. Called directly, runtime.mallocgc
// checks no size limit: a request past the heap's address range throws a
// fatal "out of memory", which no recover catches. Larger requests, and
// element counts whose byte count overflows, take make instead, which
// refuses them with the recoverable "makeslice: len out of range" panic.
// 1 GiB is far above any layer's ∇W (VGG16's largest is 9 MiB).
const maxUnclearedBytes = 1 << 30

// NewFloat32Uncleared allocates a tensor of the given shape whose contents
// are unspecified: the caller stores every element before any read. It
// skips the clear make performs, for results and buckets the executor
// overwrites whole. The data holds no pointers, so the collector never
// scans it. Float32 data only; every other constructor zeroes.
func NewFloat32Uncleared(shape Shape) *Float32 {
	if !shape.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", shape))
	}
	n := shape.Elems()
	if !unclearedFits(n) {
		return &Float32{Shape: shape, Data: make([]float32, n)}
	}
	p := mallocgc(uintptr(n)*4, nil, false)
	return &Float32{Shape: shape, Data: unsafe.Slice((*float32)(p), n)}
}

// unclearedFits reports whether n float32 elements take the uncleared
// allocation: a positive count of at most maxUnclearedBytes bytes.
func unclearedFits(n int) bool { return n > 0 && n <= maxUnclearedBytes/4 }

// mallocgc is the runtime's allocator. A nil type allocates a pointer-free
// object, and needzero false skips clearing it. The runtime keeps this
// signature for linkname users (go.dev/issue/67401).
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer
