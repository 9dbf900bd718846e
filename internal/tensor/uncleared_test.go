package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// A shape whose byte count overflows, or whose element count does, must
// fail as make fails — a recoverable "len out of range" panic — and never
// reach the runtime allocator, which would throw an uncatchable "out of
// memory" instead.
func TestNewFloat32UnclearedOverflowPanicsRecoverably(t *testing.T) {
	for _, s := range []Shape{
		{N: math.MaxInt/2 + 1, H: 1, W: 1, C: 1},
		{N: math.MaxInt, H: 1, W: 1, C: 1},
		{N: math.MaxInt/2 + 1, H: 2, W: 1, C: 1}, // Elems() wraps negative
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "len out of range") {
					t.Errorf("%v: recovered %v, want make's len out of range panic", s, r)
				}
			}()
			NewFloat32Uncleared(s)
		}()
	}
}

// Counts up to maxUnclearedBytes take the uncleared allocation; larger
// ones, and counts that are not positive, take make.
func TestUnclearedFitsBound(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{
		{1, true},
		{1 << 20, true},
		{maxUnclearedBytes / 4, true},
		{maxUnclearedBytes/4 + 1, false},
		{math.MaxInt/4 + 1, false},
		{0, false},
		{-1, false},
	} {
		if got := unclearedFits(c.n); got != c.want {
			t.Errorf("unclearedFits(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A fresh tensor's length and capacity are the shape's element count, on
// the tiny, small and large allocation paths alike, and every element it
// stores survives a collection.
func TestNewFloat32UnclearedLenCap(t *testing.T) {
	for _, s := range []Shape{
		{N: 1, H: 1, W: 1, C: 1},
		{N: 1, H: 1, W: 1, C: 3},
		{N: 1, H: 3, W: 3, C: 5},
		{N: 16, H: 3, W: 3, C: 16},
		{N: 64, H: 3, W: 3, C: 64},
	} {
		d := NewFloat32Uncleared(s)
		if d.Shape != s || len(d.Data) != s.Elems() || cap(d.Data) != s.Elems() {
			t.Fatalf("%v: shape %v, len %d, cap %d; want %d", s, d.Shape, len(d.Data), cap(d.Data), s.Elems())
		}
		for i := range d.Data {
			d.Data[i] = float32(i)
		}
		runtime.GC()
		for i, v := range d.Data {
			if v != float32(i) {
				t.Fatalf("%v: element %d = %v after GC, want %d", s, i, v, i)
			}
		}
	}
}
