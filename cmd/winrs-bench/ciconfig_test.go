package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The CI bench gate compares against the latest committed baseline, and
// checkEnvMatch refuses a baseline built by another Go version, so every
// CI job must install exactly the baseline's toolchain. Reads the
// workflow and the BENCH_*.json that `make bench-gate` picks (the last in
// lexicographic order).
func TestCIGoVersionMatchesBaseline(t *testing.T) {
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json baseline at the repository root (err %v)", err)
	}
	sort.Strings(paths)
	baseline := paths[len(paths)-1]
	rep, err := readBenchReport(baseline)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimPrefix(rep.GoVersion, "go")
	if want == "" {
		t.Fatalf("%s records no go_version", baseline)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	pins := regexp.MustCompile(`(?m)^\s*go-version:\s*"?([^"\s]+)"?\s*$`).FindAllStringSubmatch(string(ci), -1)
	if len(pins) == 0 {
		t.Fatal("ci.yml pins no go-version")
	}
	for _, m := range pins {
		if m[1] != want {
			t.Errorf("ci.yml installs go-version %q; the gate's baseline %s was built with %s",
				m[1], filepath.Base(baseline), rep.GoVersion)
		}
	}
}
