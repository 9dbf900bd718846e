package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"winrs/internal/gemm"
)

// envInfo is the header every output starts with, so a number can be
// traced back to the host and source it was measured on.
type envInfo struct {
	nproc, gomaxprocs int
	goVersion         string
	cpu, llc          string
	gemmGFLOPS        float64
	commit            string
}

func probeEnv() envInfo {
	return envInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		llc:        lastLevelCache(),
		gemmGFLOPS: gemmGFLOPS(256),
		commit:     gitCommit("."),
	}
}

func (e envInfo) print(w io.Writer, workload string, seed int64, traced bool) {
	fmt.Fprintf(w, "# env workload=%s seed=%d trace=%t\n", workload, seed, traced)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d go=%s\n", e.nproc, e.gomaxprocs, e.goVersion)
	fmt.Fprintf(w, "# env cpu=%q llc=%q\n", e.cpu, e.llc)
	fmt.Fprintf(w, "# env host.gemm_gflops=%.3f commit=%s\n", e.gemmGFLOPS, e.commit)
}

// gemmGFLOPS calibrates the host's attainable float32 rate with the
// repository's own blocked GEMM (an n×n×n product, median of nine timed
// repetitions after one warm-up). It is the "peak" core.gemm_peak_frac
// divides by.
func gemmGFLOPS(n int) float64 {
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) + 0.5
		b[i] = float32(i%5) + 0.25
	}
	gemm.Gemm(a, b, c, n, n, n)
	rates := make([]float64, 9)
	for i := range rates {
		t0 := time.Now()
		gemm.Gemm(a, b, c, n, n, n)
		rates[i] = 2 * float64(n) * float64(n) * float64(n) / time.Since(t0).Seconds() / 1e9
	}
	return median(rates)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCache reports the highest-level cache of cpu0 from sysfs.
func lastLevelCache() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, desc := -1, "unknown"
	for _, d := range dirs {
		lvl, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || lvl <= best {
			continue
		}
		best = lvl
		desc = fmt.Sprintf("L%d %s %s", lvl, readTrim(filepath.Join(d, "type")), readTrim(filepath.Join(d, "size")))
	}
	return desc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; a checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if head == "" {
			return "unknown"
		}
		return head
	}
	if c := readTrim(filepath.Join(root, ".git", ref)); c != "" {
		return c
	}
	for _, line := range strings.Split(readTrim(filepath.Join(root, ".git", "packed-refs")), "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "unknown"
}

// vmHWM returns the peak resident set (VmHWM) of a process in MiB; pid 0
// means this process.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
