// Package benchfmt holds the schema of the machine-readable benchmark
// reports (BENCH_*.json): winrs-bench writes and gates them, and the
// multi-process load test appends saturation rows to the same files. The
// types live here, outside cmd/winrs-bench, so both producers agree on
// the layout by construction.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"

	"winrs/internal/backend"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it on any
// incompatible field change so compare mode can refuse to diff mismatched
// files; purely additive fields (Saturation) do not bump it.
const SchemaVersion = 1

// Report is one machine-readable benchmark run: CI archives these as
// BENCH_<date>.json and `winrs-bench -compare old new` diffs two of them.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Date          string  `json:"date"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu,omitempty"`
	CalibrationNs float64 `json:"calibration_ns_per_op"`

	Results []Result `json:"results"`

	// Dispatch records the cost-model dispatch decision per grid shape
	// (additive schema-1 field: absent from older baselines, in which case
	// compare mode simply skips the flip check).
	Dispatch []Dispatch `json:"dispatch,omitempty"`

	// Saturation records serving-throughput scenarios (additive schema-1
	// field, written by `winrs-bench -saturate` and by the multi-process
	// load test). Compare mode warns — never fails — on regressions here:
	// serving throughput is scheduler- and machine-noise-bound in a way
	// the calibrated compute grid is not.
	Saturation []Saturation `json:"saturation,omitempty"`
}

// Dispatch is one shape's dispatch audit: what the dispatcher chose
// versus what a full measurement of every eligible backend says, plus the
// prediction ranking that produced the choice. WithinBest is the
// chosen/best measured ns/op ratio — the acceptance criterion is ≤ 1.10.
type Dispatch struct {
	Shape         string              `json:"shape"`
	Chosen        string              `json:"chosen"`
	Measured      bool                `json:"measured"` // refinement ran
	BestBackend   string              `json:"best_backend"`
	BestNsPerOp   float64             `json:"best_ns_per_op"`
	ChosenNsPerOp float64             `json:"chosen_ns_per_op"`
	WithinBest    float64             `json:"within_best"`
	BackendNs     map[string]float64  `json:"backend_ns_per_op"`
	Candidates    []backend.Candidate `json:"candidates"`
}

// Result measures one (shape, algorithm) cell.
type Result struct {
	Name           string             `json:"name"` // "<algo>/<shape>", the compare key
	Algo           string             `json:"algo"`
	Shape          string             `json:"shape"`
	NsPerOp        float64            `json:"ns_per_op"`
	AllocsPerOp    float64            `json:"allocs_per_op"`
	WorkspaceBytes int64              `json:"workspace_bytes"`
	WHatCacheBytes int64              `json:"what_cache_bytes,omitempty"`
	HotPath        bool               `json:"hot_path"` // gated by -compare
	StageShares    map[string]float64 `json:"stage_shares,omitempty"`
	// EWMKernel attributes the row to a kernel-tier variant (WinRS rows
	// and EWM micro rows): e.g. "fused8x4", "block8x8+v3". Additive field,
	// absent in pre-tier baselines — no schema bump.
	EWMKernel string `json:"ewm_kernel,omitempty"`
}

// Saturation is one serving-throughput scenario: a client fleet driving a
// server (in-process for -saturate, real processes behind the shard
// router for the load test) to saturation. Scenario is the compare key.
type Saturation struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`   // serving processes (1 for in-process)
	Clients  int    `json:"clients"` // concurrent client goroutines
	Requests int    `json:"requests"`
	Failed   int    `json:"failed"` // non-200 responses

	DurationSec float64 `json:"duration_sec"`
	Throughput  float64 `json:"requests_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`

	// Drained is set by scenarios that drain a node mid-run;
	// FailedInFlight counts requests that were in flight across the drain
	// and did not complete successfully — the acceptance criterion is 0.
	Drained        bool `json:"drained,omitempty"`
	FailedInFlight int  `json:"failed_in_flight,omitempty"`
}

// Read loads and validates a report.
func Read(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this binary speaks %d",
			path, rep.SchemaVersion, SchemaVersion)
	}
	if rep.CalibrationNs <= 0 {
		return nil, fmt.Errorf("%s: missing calibration benchmark", path)
	}
	return &rep, nil
}

// Write marshals the report to path ("-" for stdout).
func (rep *Report) Write(path string) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
