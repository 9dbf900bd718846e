package main

// -saturate drives an in-process serving stack to saturation and records
// the run as the "inproc" saturation row of a bench report. The load is
// plan-cache-friendly (a handful of geometries, many clients), so the row
// measures the per-request serving path — decode, dispatcher, pooled
// execution, encode — rather than configuration adaptation.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"winrs/internal/benchfmt"
	"winrs/internal/conv"
	"winrs/internal/serve"
	"winrs/internal/tensor"
)

// saturateShapes is the load mix: three small geometries so the compute
// stays in CI budget while the plan cache sees repeated keys.
var saturateShapes = []conv.Params{
	{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1},
	{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 3, PH: 1, PW: 1},
	{N: 2, IH: 10, IW: 10, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1},
}

// saturateBodies frames one request body per load-mix shape.
func saturateBodies() ([][]byte, error) {
	bodies := make([][]byte, len(saturateShapes))
	for i, p := range saturateShapes {
		rng := rand.New(rand.NewSource(int64(31 + i)))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, 0, 1)
		dy.FillUniform(rng, 0, 1)
		body, err := serve.EncodeRequest(
			serve.RequestHeader{Op: "backward_filter", Params: p},
			serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// driveSaturation fires requests concurrent clients × perClient requests
// at the URL, round-robining the load mix, and returns the filled row.
func driveSaturation(scenario, url string, bodies [][]byte, clients, perClient int) benchfmt.Saturation {
	var failed atomic.Int64
	latencies := make([]time.Duration, clients*perClient)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := bodies[(c+i)%len(bodies)]
				r0 := time.Now()
				resp, err := http.Post(url+"/v1/backward_filter",
					"application/octet-stream", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[c*perClient+i] = time.Since(r0)
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(t0)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i].Microseconds()) / 1e3
	}
	total := clients * perClient
	return benchfmt.Saturation{
		Scenario:    scenario,
		Nodes:       1,
		Clients:     clients,
		Requests:    total,
		Failed:      int(failed.Load()),
		DurationSec: dur.Seconds(),
		Throughput:  float64(total) / dur.Seconds(),
		P50Ms:       pct(0.50),
		P99Ms:       pct(0.99),
	}
}

// runSaturate measures the in-process scenario and merges its row into
// the report at path (keeping any existing results; creating the file
// with a fresh calibration when absent).
func runSaturate(path string) error {
	bodies, err := saturateBodies()
	if err != nil {
		return err
	}
	clients := 4 * runtime.GOMAXPROCS(0)
	if clients > 32 {
		clients = 32
	}
	const perClient = 50

	s := serve.NewServer(serve.Config{QueueDepth: 4 * clients})
	ts := httptest.NewServer(s.Handler())
	row := driveSaturation("inproc", ts.URL, bodies, clients, perClient)
	ts.Close()
	s.Close()

	rep, err := benchfmt.Read(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		rep = &benchfmt.Report{
			SchemaVersion: benchfmt.SchemaVersion,
			Date:          time.Now().UTC().Format("2006-01-02"),
			GoVersion:     runtime.Version(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			NumCPU:        runtime.NumCPU(),
			CalibrationNs: calibrationNs(),
		}
	}
	rep.Saturation = mergeSaturation(rep.Saturation, []benchfmt.Saturation{row})
	fmt.Fprintf(os.Stderr, "saturate: %s %6.0f req/s  p50 %6.2fms  p99 %6.2fms  failed %d\n",
		row.Scenario, row.Throughput, row.P50Ms, row.P99Ms, row.Failed)
	return rep.Write(path)
}

// mergeSaturation replaces same-scenario rows and appends new ones, so a
// re-run refreshes its scenarios without clobbering rows other producers
// (the multi-process load test) recorded.
func mergeSaturation(existing, rows []benchfmt.Saturation) []benchfmt.Saturation {
	out := existing[:0:0]
	replaced := map[string]bool{}
	for _, r := range rows {
		replaced[r.Scenario] = true
	}
	for _, e := range existing {
		if !replaced[e.Scenario] {
			out = append(out, e)
		}
	}
	return append(out, rows...)
}
