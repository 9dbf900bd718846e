//go:build loadtest

package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"winrs"
	"winrs/internal/benchfmt"
	"winrs/internal/conv"
	"winrs/internal/serve"
	"winrs/internal/tensor"
)

// oracle computes the expected gradient through the library entry point —
// the same oracle every in-process serve test pins against.
func oracle(p conv.Params, x, dy *tensor.Float32) (*tensor.Float32, error) {
	return winrs.BackwardFilter(p, x, dy)
}

// fleet is a running two-node shard fleet: real winrs-serve processes
// behind a real winrs-router process.
type fleet struct {
	frontURL string
	nodeURLs []string
	procs    []*exec.Cmd
}

// buildBinaries compiles winrs-serve and winrs-router into dir.
func buildBinaries(t *testing.T, dir string) (serveBin, routerBin string) {
	t.Helper()
	serveBin = filepath.Join(dir, "winrs-serve")
	routerBin = filepath.Join(dir, "winrs-router")
	for bin, pkg := range map[string]string{
		serveBin:  "winrs/cmd/winrs-serve",
		routerBin: "winrs/cmd/winrs-router",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, routerBin
}

// freePort reserves an ephemeral port and releases it for the child
// process to claim.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// awaitHealthy polls url/healthz until it answers 200.
func awaitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// startFleet launches two shard nodes and the router fronting them, all
// as real processes, and waits for every /healthz.
func startFleet(t *testing.T) *fleet {
	t.Helper()
	dir := t.TempDir()
	serveBin, routerBin := buildBinaries(t, dir)

	f := &fleet{}
	for i := 0; i < 2; i++ {
		port := freePort(t)
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		cmd := exec.Command(serveBin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-workers", "2", "-queue", "256")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		f.procs = append(f.procs, cmd)
		f.nodeURLs = append(f.nodeURLs, url)
	}
	port := freePort(t)
	f.frontURL = fmt.Sprintf("http://127.0.0.1:%d", port)
	router := exec.Command(routerBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-node", f.nodeURLs[0]+","+f.nodeURLs[1])
	router.Stdout, router.Stderr = os.Stderr, os.Stderr
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	f.procs = append(f.procs, router)

	t.Cleanup(func() {
		for _, p := range f.procs {
			p.Process.Kill()
			p.Wait()
		}
	})
	for _, url := range f.nodeURLs {
		awaitHealthy(t, url)
	}
	awaitHealthy(t, f.frontURL)
	return f
}

// workload is one geometry's framed request plus its expected response.
type workload struct {
	body []byte
	want []byte
}

// buildWorkloads frames n distinct geometries with their oracle gradients
// (computed via the library entry point, the same oracle the serve tests
// pin against).
func buildWorkloads(t *testing.T, n int) []workload {
	t.Helper()
	out := make([]workload, n)
	for i := range out {
		p := conv.Params{
			N: 1, IH: 10 + 2*(i%6), IW: 10 + 2*(i%6), FH: 3, FW: 3,
			IC: 1 + i%3, OC: 1 + i/6 + i%2, PH: 1, PW: 1,
		}
		rng := rand.New(rand.NewSource(int64(900 + i)))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, -1, 1)
		dy.FillUniform(rng, -1, 1)
		dw, err := oracle(p, x, dy)
		if err != nil {
			t.Fatal(err)
		}
		body, err := serve.EncodeRequest(
			serve.RequestHeader{Op: "backward_filter", Params: p},
			serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = workload{body: body, want: serve.AppendF32(nil, dw.Data)}
	}
	return out
}

// post sends one framed request and returns status, body, shard header.
func post(url string, body []byte) (int, []byte, string, error) {
	resp, err := http.Post(url+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get("X-Winrs-Shard"), err
}

// plansCached reads one node's plan-cache population off /healthz.
func plansCached(t *testing.T, nodeURL string) int {
	t.Helper()
	resp, err := http.Get(nodeURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		PlansCached int `json:"plans_cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.PlansCached
}

// TestLoadFleet is the whole multi-process scenario in one fleet run:
// mixed-geometry load through the router (every byte checked against the
// oracle), shard stickiness via fleet-wide plan counts, a live drain of
// one node with zero failed in-flight requests, and a saturation row
// merged into the bench report named by WINRS_LOADTEST_BENCH.
func TestLoadFleet(t *testing.T) {
	f := startFleet(t)
	loads := buildWorkloads(t, 18)
	clients := 4 * runtime.GOMAXPROCS(0)
	if clients > 24 {
		clients = 24
	}
	const perClient = 40

	// Phase 1: saturation sweep. Every response must be the oracle's
	// bytes; every geometry must stay on one shard.
	var failed atomic.Int64
	shardOf := make([]atomic.Value, len(loads)) // string per geometry
	latencies := make([]time.Duration, clients*perClient)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				gi := (c + i) % len(loads)
				r0 := time.Now()
				status, out, shard, err := post(f.frontURL, loads[gi].body)
				latencies[c*perClient+i] = time.Since(r0)
				if err != nil || status != http.StatusOK || !bytes.Equal(out, loads[gi].want) {
					t.Errorf("client %d req %d (geo %d): status %d err %v", c, i, gi, status, err)
					failed.Add(1)
					continue
				}
				if prev := shardOf[gi].Swap(shard); prev != nil && prev.(string) != shard {
					t.Errorf("geo %d moved shards mid-run: %q then %q", gi, prev, shard)
				}
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(t0)
	if failed.Load() > 0 {
		t.Fatalf("%d requests failed during the saturation sweep", failed.Load())
	}

	// Stickiness, fleet-wide: each geometry planned exactly once, on
	// exactly one node.
	total := 0
	for _, url := range f.nodeURLs {
		n := plansCached(t, url)
		if n == 0 {
			t.Errorf("node %s served no geometries; the ring is not spreading", url)
		}
		total += n
	}
	if total != len(loads) {
		t.Errorf("fleet holds %d plans for %d geometries; stickiness leaked duplicates", total, len(loads))
	}

	// Phase 2: live drain under load. Keep a stream of requests going and
	// drain node 0 mid-stream; nothing may fail, and post-drain traffic
	// must avoid the drained node.
	stop := make(chan struct{})
	var drainFailed atomic.Int64
	var streamed atomic.Int64
	var streamWG sync.WaitGroup
	for c := 0; c < 4; c++ {
		streamWG.Add(1)
		go func(c int) {
			defer streamWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gi := (c + i) % len(loads)
				status, out, _, err := post(f.frontURL, loads[gi].body)
				streamed.Add(1)
				if err != nil || status != http.StatusOK || !bytes.Equal(out, loads[gi].want) {
					drainFailed.Add(1)
					t.Errorf("in-flight request failed across drain: status %d err %v", status, err)
				}
			}
		}(c)
	}
	time.Sleep(200 * time.Millisecond) // let the stream saturate
	resp, err := http.Post(f.frontURL+"/admin/nodes/drain?node="+f.nodeURLs[0]+"&timeout=30s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	drainBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s", resp.StatusCode, drainBody)
	}
	time.Sleep(300 * time.Millisecond) // post-drain traffic
	close(stop)
	streamWG.Wait()

	for gi := range loads {
		status, _, shard, err := post(f.frontURL, loads[gi].body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("geo %d after drain: status %d err %v", gi, status, err)
		}
		if shard == f.nodeURLs[0] {
			t.Errorf("geo %d routed to the drained node", gi)
		}
	}
	if n := drainFailed.Load(); n != 0 {
		t.Fatalf("%d in-flight requests failed across the live drain", n)
	}
	t.Logf("drain: %d streamed requests, 0 failed", streamed.Load())

	// Record the saturation row.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		return float64(latencies[int(p*float64(len(latencies)-1))].Microseconds()) / 1e3
	}
	row := benchfmt.Saturation{
		Scenario:       "multiproc_router",
		Nodes:          2,
		Clients:        clients,
		Requests:       clients * perClient,
		Failed:         int(failed.Load()),
		DurationSec:    dur.Seconds(),
		Throughput:     float64(clients*perClient) / dur.Seconds(),
		P50Ms:          pct(0.50),
		P99Ms:          pct(0.99),
		Drained:        true,
		FailedInFlight: int(drainFailed.Load()),
	}
	t.Logf("saturation: %.0f req/s, p50 %.2fms, p99 %.2fms over %d nodes", row.Throughput, row.P50Ms, row.P99Ms, row.Nodes)
	if path := os.Getenv("WINRS_LOADTEST_BENCH"); path != "" {
		if err := mergeRow(path, row); err != nil {
			t.Fatalf("recording saturation row: %v", err)
		}
		t.Logf("saturation row merged into %s", path)
	}
}

// mergeRow merges one saturation row into the bench report at path,
// creating a minimal report when absent.
func mergeRow(path string, row benchfmt.Saturation) error {
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
			CalibrationNs: 1, // placeholder: this producer measures serving, not compute
		}
	}
	kept := rep.Saturation[:0:0]
	for _, s := range rep.Saturation {
		if s.Scenario != row.Scenario {
			kept = append(kept, s)
		}
	}
	rep.Saturation = append(kept, row)
	return rep.Write(path)
}
