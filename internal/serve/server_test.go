package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"winrs"
	"winrs/internal/obs"
	"winrs/internal/serve"
)

func newTestServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.NewServer(serve.Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func randLayer(t *testing.T, seed int64, p winrs.Params) (*winrs.Tensor, *winrs.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := winrs.NewTensor(p.XShape())
	dy := winrs.NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	return x, dy
}

// frameF32 builds the framed FP32 backward-filter request body.
func frameF32(t *testing.T, p winrs.Params, x, dy *winrs.Tensor) []byte {
	t.Helper()
	body, err := serve.EncodeRequest(serve.RequestHeader{Op: "backward_filter", Params: p},
		serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBackwardFilter(t *testing.T, url string, p winrs.Params, x, dy *winrs.Tensor) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := postFramed(url, frameF32(t, p, x, dy))
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// postFramed posts a framed backward-filter body and returns the response
// with its body read. It reports failure as an error rather than through
// t, so client goroutines can call it.
func postFramed(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(url+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// The served gradient must be bit-for-bit identical to the library path,
// and a repeated shape must hit the plan cache.
func TestServeBackwardFilterMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	p := winrs.Params{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	x, dy := randLayer(t, 21, p)
	want, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}

	for round, wantCache := range []string{"miss", "hit", "hit"} {
		resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, out)
		}
		if got := resp.Header.Get("X-Winrs-Cache"); got != wantCache {
			t.Errorf("round %d: cache header %q, want %q", round, got, wantCache)
		}
		if got := resp.Header.Get("X-Winrs-Shape"); got != p.DWShape().String() {
			t.Errorf("round %d: shape header %q", round, got)
		}
		if resp.Header.Get("X-Winrs-Kernel-Pair") == "" {
			t.Errorf("round %d: missing kernel-pair header", round)
		}
		got := make([]float32, p.DWShape().Elems())
		if err := serve.DecodeF32(out, got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("round %d: served gradient differs from library at %d: %v vs %v",
					round, i, got[i], want.Data[i])
			}
		}
	}
}

func TestServeBackwardFilterHalf(t *testing.T) {
	_, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(22))
	xf := winrs.NewTensor(p.XShape())
	dyf := winrs.NewTensor(p.DYShape())
	xf.FillUniform(rng, 0, 1)
	dyf.FillUniform(rng, 0, 0.01)
	x, dy := xf.ToHalf(), dyf.ToHalf()
	want, err := winrs.BackwardFilterHalf(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}

	body, err := serve.EncodeRequest(
		serve.RequestHeader{Op: "backward_filter", Params: p, DType: serve.F16},
		serve.AppendF16(nil, x.Data), serve.AppendF16(nil, dy.Data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	got := make([]float32, p.DWShape().Elems())
	if err := serve.DecodeF32(out, got); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("served f16 gradient differs from library at %d", i)
		}
	}
}

func TestServeForwardAndBackwardData(t *testing.T) {
	_, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(23))
	x := winrs.NewTensor(p.XShape())
	w := winrs.NewTensor(p.DWShape())
	dy := winrs.NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	w.FillUniform(rng, -1, 1)
	dy.FillUniform(rng, 0, 1)

	wantY, err := winrs.Forward(p, x, w)
	if err != nil {
		t.Fatal(err)
	}
	wantDX, err := winrs.BackwardData(p, dy, w)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path string
		a, b *winrs.Tensor
		want *winrs.Tensor
	}{
		{"/v1/forward", x, w, wantY},
		{"/v1/backward_data", dy, w, wantDX},
	} {
		body, err := serve.EncodeRequest(serve.RequestHeader{Params: p},
			serve.AppendF32(nil, tc.a.Data), serve.AppendF32(nil, tc.b.Data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+tc.path, "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, out)
		}
		got := make([]float32, tc.want.Shape.Elems())
		if err := serve.DecodeF32(out, got); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		for i := range tc.want.Data {
			if got[i] != tc.want.Data[i] {
				t.Fatalf("%s: served result differs at %d", tc.path, i)
			}
		}
	}
}

func TestServeBadRequests(t *testing.T) {
	s, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 1, OC: 1, PH: 1, PW: 1}
	okA := make([]byte, p.XShape().Elems()*4)
	okB := make([]byte, p.DYShape().Elems()*4)

	post := func(path string, body []byte) int {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Garbage framing.
	if code := post("/v1/backward_filter", []byte("not a request")); code != http.StatusBadRequest {
		t.Errorf("bad magic: status %d", code)
	}
	// Header op disagrees with the endpoint.
	body, _ := serve.EncodeRequest(serve.RequestHeader{Op: "forward", Params: p}, okA, okB)
	if code := post("/v1/backward_filter", body); code != http.StatusBadRequest {
		t.Errorf("op mismatch: status %d", code)
	}
	// Wrong payload size.
	body, _ = serve.EncodeRequest(serve.RequestHeader{Params: p}, okA, okB[:len(okB)-4])
	if code := post("/v1/backward_filter", body); code != http.StatusBadRequest {
		t.Errorf("short payload: status %d", code)
	}
	// Invalid geometry.
	bad := p
	bad.FH = 0
	body, _ = serve.EncodeRequest(serve.RequestHeader{Params: bad}, okA, okB)
	if code := post("/v1/backward_filter", body); code != http.StatusBadRequest {
		t.Errorf("invalid params: status %d", code)
	}
	// A geometry whose ∇W element count overflows (2⁶⁴ elements, which
	// wrapped to 0) is refused by validation, before the payload is sized.
	huge := winrs.Params{N: 1, IH: 1, IW: 1, FH: 4096, FW: 4096, IC: 1 << 20, OC: 1 << 20, PH: 2048, PW: 2048}
	body, _ = serve.EncodeRequest(serve.RequestHeader{Params: huge}, okA, okB)
	if resp, err := http.Post(ts.URL+"/v1/backward_filter", "application/octet-stream", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "overflows") {
			t.Errorf("overflowing geometry: status %d, body %q; want 400 naming the overflow", resp.StatusCode, msg)
		}
	}
	// f16 is only a backward_filter dtype.
	body, _ = serve.EncodeRequest(serve.RequestHeader{Params: p, DType: serve.F16},
		okA[:p.XShape().Elems()*2], make([]byte, p.DWShape().Elems()*2))
	if code := post("/v1/forward", body); code != http.StatusBadRequest {
		t.Errorf("f16 forward: status %d", code)
	}
	// Unknown dtype.
	body, _ = serve.EncodeRequest(serve.RequestHeader{Params: p, DType: "f64"}, okA, okB)
	if code := post("/v1/backward_filter", body); code != http.StatusBadRequest {
		t.Errorf("unknown dtype: status %d", code)
	}
	// Negative segment or SM counts: zero already selects the adaptive Z
	// and the default hardware, so a negative value could only mint a
	// duplicate plan-cache key for the same plan.
	for _, hdr := range []serve.RequestHeader{
		{Params: p, Segments: -1},
		{Params: p, NSM: -7},
	} {
		body, _ = serve.EncodeRequest(hdr, okA, okB)
		if code := post("/v1/backward_filter", body); code != http.StatusBadRequest {
			t.Errorf("segments %d, nsm %d: status %d", hdr.Segments, hdr.NSM, code)
		}
	}
	if n := s.Runtime().Cache().Len(); n != 0 {
		t.Errorf("rejected requests left %d plans in the cache", n)
	}
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, "winrs_client_errors_total 9\n") {
		t.Errorf("winrs_client_errors_total does not count all 9 rejections:\n%s", m)
	}
}

func TestServeHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 10, IW: 10, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x, dy := randLayer(t, 24, p)
	for i := 0; i < 3; i++ {
		if resp, out := postBackwardFilter(t, ts.URL, p, x, dy); resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status      string `json:"status"`
		PlansCached int    `json:"plans_cached"`
		CacheHits   uint64 `json:"cache_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.PlansCached != 1 || health.CacheHits < 2 {
		t.Errorf("healthz = %+v", health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"winrs_plan_cache_hits_total 2",
		"winrs_plan_cache_misses_total 1",
		`winrs_requests_total{op="backward_filter"} 3`,
		`winrs_request_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// Load-style test: 8 concurrent clients over two FP32 shapes and one
// binary16 shape. Every response is either a correct 200 (bit-for-bit
// against the library) or a retryable rejection. Run with -race.
func TestServeConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t)
	type layer struct {
		p    winrs.Params
		body []byte        // framed request
		want *winrs.Tensor // library gradient
	}
	var layers []layer
	for i, p := range []winrs.Params{
		{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1},
		{N: 2, IH: 12, IW: 14, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2},
	} {
		x, dy := randLayer(t, int64(30+i), p)
		want, err := winrs.BackwardFilter(p, x, dy)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, layer{p, frameF32(t, p, x, dy), want})
	}
	p := winrs.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	xf, dyf := randLayer(t, 32, p)
	xh, dyh := xf.ToHalf(), dyf.ToHalf()
	want, err := winrs.BackwardFilterHalf(p, xh, dyh)
	if err != nil {
		t.Fatal(err)
	}
	body, err := serve.EncodeRequest(
		serve.RequestHeader{Op: "backward_filter", Params: p, DType: serve.F16},
		serve.AppendF16(nil, xh.Data), serve.AppendF16(nil, dyh.Data))
	if err != nil {
		t.Fatal(err)
	}
	layers = append(layers, layer{p, body, want})

	const clients = 8
	const perClient = 6
	var ok, rejected int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				l := layers[(c+i)%len(layers)]
				resp, out, err := postFramed(ts.URL, l.body)
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					got := make([]float32, l.p.DWShape().Elems())
					if err := serve.DecodeF32(out, got); err != nil {
						t.Error(err)
						return
					}
					for j := range l.want.Data {
						if got[j] != l.want.Data[j] {
							t.Errorf("client %d: payload differs at %d", c, j)
							return
						}
					}
					mu.Lock()
					ok++
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d: rejection without Retry-After", c)
					}
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, out)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatalf("no request succeeded (%d rejected)", rejected)
	}
	// The plan cache must be doing its job under concurrency: 48 requests
	// over 3 plan keys leave at most a handful of misses.
	hits, misses := s.Runtime().Cache().Stats()
	if hits == 0 {
		t.Errorf("plan cache never hit (%d misses) across %d served requests", misses, ok)
	}
}

// Metrics scrapes must be safe against concurrent request traffic with
// per-stage tracing on: clients hammer backward_filter while scrapers read
// /metrics (registry + default registry + trace recorder). Run with -race;
// this is the serve-level half of the observability race satellite.
func TestServeMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t)
	obs.ResetTrace()
	obs.EnableTrace(true)
	t.Cleanup(func() {
		obs.EnableTrace(false)
		obs.ResetTrace()
	})

	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 77, p)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
				if resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d: %s", resp.StatusCode, out)
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(string(body), "winrs_plan_cache_misses_total") {
					t.Error("scrape missing plan-cache series")
					return
				}
			}
		}()
	}
	wg.Wait()

	// With tracing on and traffic served, the stage histograms must be live.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE winrs_stage_duration_seconds histogram",
		`winrs_stage_units_total{stage="segment_tile"}`,
		"winrs_process_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
