package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// cpuinfoHas reports whether /proc/cpuinfo's first flags line lists flag,
// skipping the test where the cross-check cannot run: off linux/amd64, or
// when cpuinfo is unreadable or has no flags line.
func cpuinfoHas(t *testing.T, flag string) bool {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("cpuinfo cross-check runs on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cpuinfo unreadable: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(flags) {
			if f == flag {
				return true
			}
		}
		return false
	}
	t.Skip("cpuinfo lists no flags line")
	return false
}

// On linux/amd64 the detected flag must agree with the kernel's own view:
// /proc/cpuinfo lists "avx2" only when the CPU has it and the kernel
// enabled the YMM state.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	want := cpuinfoHas(t, "avx2")
	if got := detectAVX2(); got != want {
		t.Errorf("detectAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
	if HasAVX2 != detectAVX2() {
		t.Errorf("HasAVX2 = %v, detection says %v", HasAVX2, detectAVX2())
	}
}

// The same cross-check for F16C: the kernel lists "f16c" only when the CPU
// has it and the AVX state it depends on is enabled.
func TestDetectF16CMatchesCPUInfo(t *testing.T) {
	want := cpuinfoHas(t, "f16c")
	if got := detectF16C(); got != want {
		t.Errorf("detectF16C() = %v, /proc/cpuinfo lists f16c: %v", got, want)
	}
	if HasF16C != detectF16C() {
		t.Errorf("HasF16C = %v, detection says %v", HasF16C, detectF16C())
	}
}
