package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// serveBin is a winrs-serve built once for the smoke test.
var serveBin string

// TestMain doubles as the benchmark binary: the benchmark launches itself
// for fresh-process measurements, and under `go test` "itself" is this test
// binary, so a marked child runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	dir, err := os.MkdirTemp("", "winrs-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "winrs-serve")
	build := exec.Command("go", "build", "-o", serveBin, "winrs/cmd/winrs-serve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build winrs-serve:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1…10, shuffled
	for _, c := range []struct {
		p            float64
		want, beyond int
	}{
		{0.5, 5, 5}, {0.75, 8, 2}, {0.9, 9, 1}, {0.99, 10, 0}, {0.01, 1, 9},
	} {
		v, beyond := percentile(xs, c.p)
		if v != float64(c.want) || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %d with %d", 100*c.p, v, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// Every reported tail must have at least ten samples beyond it: minSamples
// is the smallest sample count that guarantees it.
func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}, {0.99, 1000}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, n, c.want)
		}
		xs := make([]float64, n)
		if _, beyond := percentile(xs, c.p); beyond < 10 {
			t.Errorf("p%g of %d samples has %d beyond", 100*c.p, n, beyond)
		}
		if _, beyond := percentile(xs[:n-1], c.p); beyond >= 10 {
			t.Errorf("minSamples(%g) is not minimal: %d samples already leave %d beyond", c.p, n-1, beyond)
		}
	}
	for _, w := range workloads {
		if w.tail <= 0.5 || w.tail >= 1 {
			t.Errorf("%s: tail %g outside (0.5, 1)", w.name, w.tail)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

// The open-loop generator times each request from its due time: when the
// system stalls, requests queued behind the stall are charged the wait,
// while the exchange itself stays short, and lateness stays the
// generator's own.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	stall := 60 * time.Millisecond
	start := time.Now()
	samples := runOpen(due, 2, func(i int, dueAt, sent time.Time) bool {
		if i == 0 || i == 1 { // both senders stall on the first two requests
			time.Sleep(stall)
		}
		return false
	})
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("open loop finished in %v, before the stall ended", elapsed)
	}
	for i, s := range samples {
		if s.latMS < s.exchangeMS || s.lateMS < 0 {
			t.Errorf("request %d: latency %.3f < exchange %.3f or negative lateness %.3f", i, s.latMS, s.exchangeMS, s.lateMS)
		}
	}
	// Request 2 was due at 10ms but no sender was free until the stall
	// ended at ~60ms: its latency counts that wait, its exchange does not.
	if s := samples[2]; s.latMS < 40 || s.exchangeMS > 20 {
		t.Errorf("queued request: latency %.3f ms (want ≥ 40, charged the stall), exchange %.3f ms", s.latMS, s.exchangeMS)
	}
	if s := samples[19]; s.latMS > 30 {
		t.Errorf("request due after the backlog cleared: latency %.3f ms, want small", s.latMS)
	}
	var late []float64
	for _, s := range samples {
		late = append(late, s.lateMS)
	}
	if p90, _ := percentile(late, 0.9); p90 > 10 {
		t.Errorf("generator lateness p90 %.3f ms on an idle generator", p90)
	}
}

// The same seed must give the same workload: geometry lists are fixed by
// the definition, while operands, arrivals and key order follow the seed.
func TestSeedDeterminism(t *testing.T) {
	a, b := churnPopulation(churnKeys), churnPopulation(churnKeys)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("churn population differs between calls")
	}
	seen := map[geom]bool{}
	for _, g := range a {
		if err := g.p.Validate(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if seen[geom{p: g.p, fp16: g.fp16, auto: g.auto}] {
			t.Fatalf("%s: duplicate key", g.name)
		}
		seen[geom{p: g.p, fp16: g.fp16, auto: g.auto}] = true
	}

	bodies := func(seed int64) [][]byte {
		keys, err := buildKeys(a[:32], seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, k := range keys {
			out = append(out, k.body())
		}
		return out
	}
	if !reflect.DeepEqual(bodies(7), bodies(7)) {
		t.Error("same seed gave different request bodies")
	}
	if reflect.DeepEqual(bodies(7), bodies(8)) {
		t.Error("different seeds gave identical request bodies")
	}
	if !reflect.DeepEqual(poissonSchedule(7, 100, time.Second), poissonSchedule(7, 100, time.Second)) {
		t.Error("same seed gave different arrival schedules")
	}
	for i := 0; i < 100; i++ {
		if keyAt(7, streamKeys, i, churnKeys) != keyAt(7, streamKeys, i, churnKeys) {
			t.Fatal("key order is not a function of the seed")
		}
	}
	la, lb := newLibLayers(vgg16Layers(16), 7), newLibLayers(vgg16Layers(16), 7)
	for i := range la {
		if !reflect.DeepEqual(la[i].x.Data, lb[i].x.Data) || !reflect.DeepEqual(la[i].dy.Data, lb[i].dy.Data) {
			t.Fatalf("layer %s: same seed gave different operands", la[i].g.name)
		}
	}
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// program reports, with the same units and directions.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range c.got {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s in BENCHMARK.json differs from the program's declaration:\n got %v\nwant %v", c.what, got, want)
		}
	}
}

// A -short run of every workload, untraced and traced, must emit every
// declared metric with its unit and pass its own correctness checks.
func TestShortSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("launches winrs-serve processes")
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.3", "--short",
					"--trace", fmt.Sprint(trace), "--serve-bin", serveBin,
					"--spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := realMain(args, &out); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				var res result
				if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", d.name, m, ok, d.unit)
					}
				}
			})
		}
	}
}
