package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// On linux/amd64 the detected flag must agree with the kernel's own view:
// /proc/cpuinfo lists "avx2" only when the CPU has it and the kernel
// enabled the YMM state.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("cpuinfo cross-check runs on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cpuinfo unreadable: %v", err)
	}
	want, found := false, false
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		found = true
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx2"
		}
		break
	}
	if !found {
		t.Skip("cpuinfo lists no flags line")
	}
	if got := detectAVX2(); got != want {
		t.Errorf("detectAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
	if HasAVX2 != detectAVX2() {
		t.Errorf("HasAVX2 = %v, detection says %v", HasAVX2, detectAVX2())
	}
}
