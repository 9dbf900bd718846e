package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Date:          "2026-08-08",
		GoVersion:     "go1.22",
		GOMAXPROCS:    4,
		CalibrationNs: 12345,
		Results:       []Result{{Name: "winrs_fp32/shape", NsPerOp: 100, HotPath: true}},
		Saturation: []Saturation{{
			Scenario: "inproc_batch", Nodes: 1, Clients: 8, Requests: 400,
			Throughput: 5000, P50Ms: 1.5, P99Ms: 4.2,
		}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CalibrationNs != rep.CalibrationNs || len(got.Results) != 1 || len(got.Saturation) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Saturation[0] != rep.Saturation[0] {
		t.Errorf("saturation row mismatch: %+v vs %+v", got.Saturation[0], rep.Saturation[0])
	}
}

func TestReadRejectsBadReports(t *testing.T) {
	dir := t.TempDir()
	if _, err := Read(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("Read of a missing file succeeded")
	}

	wrong := &Report{SchemaVersion: SchemaVersion + 1, CalibrationNs: 1}
	path := filepath.Join(dir, "wrong.json")
	if err := wrong.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("wrong schema version accepted: %v", err)
	}

	nocal := &Report{SchemaVersion: SchemaVersion}
	path = filepath.Join(dir, "nocal.json")
	if err := nocal.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "calibration") {
		t.Errorf("missing calibration accepted: %v", err)
	}
}
