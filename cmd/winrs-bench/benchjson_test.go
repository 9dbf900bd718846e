package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep benchReport) string {
	t.Helper()
	rep.SchemaVersion = benchSchemaVersion
	if rep.GoVersion == "" {
		rep.GoVersion = "go1.22"
	}
	if rep.GOMAXPROCS == 0 {
		rep.GOMAXPROCS = 1
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The gate flags a hot-path case only when BOTH the raw and the
// calibration-normalized slowdown exceed the threshold: a clock-regime
// swing that only moves the calibration microbenchmark must not
// manufacture a regression, and a real slowdown on a stable machine must
// still fail.
func TestCompareDualCriterion(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", benchReport{
		CalibrationNs: 100_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true},
		},
	})

	// Calibration halved (machine "faster"), raw time unchanged: the
	// normalized ratio alone says +100%, the raw ratio says 0%. Not a
	// regression.
	calSwing := writeReport(t, dir, "cal_swing.json", benchReport{
		CalibrationNs: 50_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true},
		},
	})
	if err := runBenchCompare(base, calSwing, 0.15); err != nil {
		t.Errorf("calibration-only swing failed the gate: %v", err)
	}

	// Raw and normalized both +50%: a genuine regression.
	slow := writeReport(t, dir, "slow.json", benchReport{
		CalibrationNs: 100_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 750_000, HotPath: true},
		},
	})
	if err := runBenchCompare(base, slow, 0.15); err == nil {
		t.Error("true regression passed the gate")
	}

	// Non-hot-path entries are reported but never gated.
	slowCold := writeReport(t, dir, "slow_cold.json", benchReport{
		CalibrationNs: 100_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true},
			{Name: "direct/case", NsPerOp: 900_000},
		},
	})
	if err := runBenchCompare(base, slowCold, 0.15); err != nil {
		t.Errorf("cold-path slowdown failed the gate: %v", err)
	}
}

// A hot path present in the baseline but missing from the new report fails
// the gate; an alloc creep on a zero-alloc hot path fails it too.
func TestCompareStructuralRegressions(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", benchReport{
		CalibrationNs: 100_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true, AllocsPerOp: 0},
		},
	})

	vanished := writeReport(t, dir, "vanished.json", benchReport{
		CalibrationNs: 100_000,
		Results:       []benchResult{},
	})
	if err := runBenchCompare(base, vanished, 0.15); err == nil {
		t.Error("vanished hot path passed the gate")
	}

	allocs := writeReport(t, dir, "allocs.json", benchReport{
		CalibrationNs: 100_000,
		Results: []benchResult{
			{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true, AllocsPerOp: 2},
		},
	})
	if err := runBenchCompare(base, allocs, 0.15); err == nil {
		t.Error("alloc creep on a zero-alloc hot path passed the gate")
	}
}

// Mismatched environments are refused outright rather than mis-normalized.
func TestCompareRefusesEnvMismatch(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", benchReport{
		CalibrationNs: 100_000, GOMAXPROCS: 1,
		Results: []benchResult{{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true}},
	})
	wide := writeReport(t, dir, "wide.json", benchReport{
		CalibrationNs: 100_000, GOMAXPROCS: 4,
		Results: []benchResult{{Name: "winrs_fp32/case", NsPerOp: 200_000, HotPath: true}},
	})
	if err := runBenchCompare(base, wide, 0.15); err == nil {
		t.Error("GOMAXPROCS mismatch passed the gate")
	}

	otherGo := writeReport(t, dir, "othergo.json", benchReport{
		CalibrationNs: 100_000, GoVersion: "go1.21",
		Results: []benchResult{{Name: "winrs_fp32/case", NsPerOp: 500_000, HotPath: true}},
	})
	if err := runBenchCompare(base, otherGo, 0.15); err == nil {
		t.Error("Go-version mismatch passed the gate")
	}
}

// Saturation rows warn but never gate — except a drained scenario that
// dropped in-flight requests, which is a correctness failure.
func TestCompareSaturationRows(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", benchReport{
		CalibrationNs: 100_000,
		Saturation: []benchSaturation{
			{Scenario: "inproc_batch", Throughput: 5000},
		},
	})

	// A 50% throughput collapse warns, never fails.
	slower := writeReport(t, dir, "slower.json", benchReport{
		CalibrationNs: 100_000,
		Saturation: []benchSaturation{
			{Scenario: "inproc_batch", Throughput: 2500},
		},
	})
	if err := runBenchCompare(base, slower, 0.15); err != nil {
		t.Errorf("saturation regression failed the gate (should only warn): %v", err)
	}

	// A drain that dropped in-flight requests is a hard failure.
	dropped := writeReport(t, dir, "dropped.json", benchReport{
		CalibrationNs: 100_000,
		Saturation: []benchSaturation{
			{Scenario: "multiproc_router", Drained: true, FailedInFlight: 3, Throughput: 5000},
		},
	})
	if err := runBenchCompare(base, dropped, 0.15); err == nil {
		t.Error("drain-dropped in-flight requests passed the gate")
	}
}

// mergeSaturation replaces same-scenario rows and keeps foreign ones, so
// -saturate re-runs refresh their rows without clobbering the load test's.
func TestMergeSaturation(t *testing.T) {
	existing := []benchSaturation{
		{Scenario: "inproc_batch", Throughput: 1},
		{Scenario: "multiproc_router", Throughput: 2},
	}
	rows := []benchSaturation{
		{Scenario: "inproc_batch", Throughput: 9},
		{Scenario: "inproc_nobatch", Throughput: 8},
	}
	got := mergeSaturation(existing, rows)
	if len(got) != 3 {
		t.Fatalf("merged %d rows, want 3: %+v", len(got), got)
	}
	byScenario := map[string]float64{}
	for _, r := range got {
		byScenario[r.Scenario] = r.Throughput
	}
	if byScenario["inproc_batch"] != 9 {
		t.Errorf("same-scenario row not replaced: %+v", got)
	}
	if byScenario["multiproc_router"] != 2 {
		t.Errorf("foreign row clobbered: %+v", got)
	}
	if byScenario["inproc_nobatch"] != 8 {
		t.Errorf("new row missing: %+v", got)
	}
}
