package serve_test

// Fault-injection harness: drives the server through the failure modes the
// request lifecycle must contain — compute panics, slow computes that
// outlive the deadline, clients disconnecting mid-compute and mid-queue —
// via Runtime.SetFaultHook, and asserts the containment contract: workers
// survive, arenas return to the pools (Borrowed() == 0), the right status
// and counter record each outcome, and the next request is served
// correctly.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"winrs"
	"winrs/internal/serve"
)

func newFaultServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// waitForMetric polls /metrics until the line appears; the handler may
// still be recording an outcome after the client's Do call has already
// returned (e.g. a disconnected client).
func waitForMetric(t *testing.T, url, line string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(scrapeMetrics(t, url), line) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("metric %q never appeared; metrics:\n%s", line, scrapeMetrics(t, url))
}

// Acceptance criterion: a request whose compute panics answers 500, the
// worker survives, and the next 100 requests on the same server are served
// bit-for-bit correctly. Pools must not leak across the panic.
func TestFaultPanicThenHundredRequests(t *testing.T) {
	s, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 41, p)
	want, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		if calls.Add(1) == 1 {
			panic("injected compute panic")
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %s", resp.StatusCode, out)
	}
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Fatalf("Borrowed() = %d after panic, want 0", got)
	}

	for i := 0; i < 100; i++ {
		resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after panic: status %d: %s", i, resp.StatusCode, out)
		}
		got := make([]float32, p.DWShape().Elems())
		if err := serve.DecodeF32(out, got); err != nil {
			t.Fatalf("request %d after panic: %v", i, err)
		}
		for j := range want.Data {
			if got[j] != want.Data[j] {
				t.Fatalf("request %d after panic: gradient differs at %d", i, j)
			}
		}
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		"winrs_panics_total 1",
		`winrs_requests_total{op="backward_filter"} 100`,
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d after traffic, want 0", got)
	}
}

// Acceptance criterion: a deadline expiring mid-compute aborts the request
// promptly with 503 and frees the worker for the next request. The hook
// stands in for a slow compute that honors cooperative cancellation — it
// blocks until ctx is done, as a long execution would run until the check
// before its next unit observes the cancel.
func TestFaultSlowComputeDeadline(t *testing.T) {
	const deadline = 250 * time.Millisecond
	s, ts := newFaultServer(t, serve.Config{Workers: 1, QueueDepth: 1, Deadline: deadline})
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 42, p)

	var armed atomic.Bool
	armed.Store(true)
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		if armed.CompareAndSwap(true, false) {
			<-ctx.Done() // slow compute: blocks until cancelled cooperatively
			return ctx.Err()
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	t0 := time.Now()
	resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline mid-compute: status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if elapsed < deadline {
		t.Errorf("request returned in %v, before the %v deadline", elapsed, deadline)
	}
	if elapsed > 10*time.Second {
		t.Errorf("request took %v to abort after the %v deadline", elapsed, deadline)
	}
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d after cancelled compute, want 0", got)
	}

	// The sole worker must have been freed: a follow-up request succeeds.
	resp, out = postBackwardFilter(t, ts.URL, p, x, dy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after deadline: status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "winrs_deadline_total 1") {
		t.Error("metrics missing winrs_deadline_total 1")
	}
}

// A client disconnecting mid-compute is not an error and not a deadline:
// the compute aborts cooperatively, nothing is written (nobody is
// listening), and the outcome is counted as a cancellation.
func TestFaultClientDisconnectMidCompute(t *testing.T) {
	s, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 43, p)

	entered := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	body, err := serve.EncodeRequest(serve.RequestHeader{Op: "backward_filter", Params: p},
		serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel() // drop the connection while the compute is in flight
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/backward_filter", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("disconnected request got a response: status %d", resp.StatusCode)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	waitForMetric(t, ts.URL, "winrs_cancelled_total 1")
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d after disconnect, want 0", got)
	}
	// The pool must still serve the next (connected) client.
	resp2, out := postBackwardFilter(t, ts.URL, p, x, dy)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after disconnect: status %d: %s", resp2.StatusCode, out)
	}
}

// A client disconnecting while its request is still queued abandons the
// job before it runs; this is counted as a cancellation, distinguished
// from a deadline expiry in the same phase (which answers 503).
func TestFaultClientDisconnectWhileQueued(t *testing.T) {
	s, ts := newFaultServer(t, serve.Config{Workers: 1, QueueDepth: 1, Deadline: 30 * time.Second})
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 44, p)

	entered := make(chan struct{})
	release := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	// Request A occupies the sole worker until released.
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postBackwardFilter(t, ts.URL, p, x, dy)
		aDone <- resp.StatusCode
	}()
	<-entered

	// Request B is admitted to the queue behind A, then its client hangs up.
	body, err := serve.EncodeRequest(serve.RequestHeader{Op: "backward_filter", Params: p},
		serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let B reach the queue
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/backward_filter", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("abandoned queued request got a response: status %d", resp.StatusCode)
	}

	waitForMetric(t, ts.URL, "winrs_cancelled_total 1")

	close(release)
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("request A: status %d, want 200", code)
	}
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d, want 0", got)
	}
}

// A hook returning a plain error is mapped like any compute failure: 422,
// counted as a compute error, arenas recycled.
func TestFaultHookErrorMapsToComputeError(t *testing.T) {
	s, ts := newTestServer(t)
	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x, dy := randLayer(t, 45, p)

	var armed atomic.Bool
	armed.Store(true)
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		if armed.CompareAndSwap(true, false) {
			return errors.New("injected compute failure")
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "injected compute failure") {
		t.Errorf("error body %q does not carry the compute error", out)
	}
	if got := s.Runtime().Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d, want 0", got)
	}
	if resp, _ := postBackwardFilter(t, ts.URL, p, x, dy); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after hook error: status %d", resp.StatusCode)
	}
}

// A body at the configured limit is served; one byte over answers 413 (not
// a generic 400), so clients can tell "shrink the payload" from "fix the
// framing".
func TestServeBodyLimitBoundary(t *testing.T) {
	p := winrs.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 1, OC: 1, PH: 1, PW: 1}
	x, dy := randLayer(t, 46, p)
	body, err := serve.EncodeRequest(serve.RequestHeader{Op: "backward_filter", Params: p},
		serve.AppendF32(nil, x.Data), serve.AppendF32(nil, dy.Data))
	if err != nil {
		t.Fatal(err)
	}

	// Limit exactly at the body size: served.
	_, ts := newFaultServer(t, serve.Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: int64(len(body))})
	resp, out := postBackwardFilter(t, ts.URL, p, x, dy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body at limit: status %d: %s", resp.StatusCode, out)
	}

	// One byte under the body size: 413 with the limit in the message.
	_, ts2 := newFaultServer(t, serve.Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: int64(len(body) - 1)})
	resp2, err := http.Post(ts2.URL+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	msg, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over limit: status %d: %s", resp2.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "byte limit") {
		t.Errorf("413 body %q does not name the limit", msg)
	}
}

// The lifecycle counters are registered (and rendered) from server start,
// not lazily on first increment, so dashboards see zeros instead of gaps.
func TestFaultMetricsRegisteredUpfront(t *testing.T) {
	_, ts := newTestServer(t)
	metrics := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"winrs_panics_total 0",
		"winrs_cancelled_total 0",
		"winrs_write_errors_total 0",
		"winrs_deadline_total 0",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %q", name)
		}
	}
}

// Acceptance criterion: cancelling a grouped request mid-run leaks
// nothing — the grouped dispatch drains, the borrowed arenas return to
// the pools (Borrowed() == 0) after every attempt, and a served grouped
// gradient stays bit-identical to the library path. Every third attempt
// runs uncancelled right after a cancelled one, on a pooled output the
// cancelled run may have left partial, so the check also shows that
// output is rewritten in full. The G = 2 layer runs for tens of
// milliseconds on one core, past the 0–150 µs sleeps and, at GOMAXPROCS
// 1, the scheduler's 10 ms preemption that lets the cancelling goroutine
// run. Run under -race this also proves the cancelled batch
// left no straggler still writing into a recycled workspace.
func TestFaultGroupedCancelMidInterleave(t *testing.T) {
	s, _ := newFaultServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	rt := s.Runtime()
	p := winrs.Params{N: 1, IH: 64, IW: 64, FH: 3, FW: 3, IC: 512, OC: 512, PH: 1, PW: 1, Groups: 2}
	x, dy := randLayer(t, 46, p)
	want, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	key := serve.PlanKey{Params: p}

	const attempts = 18
	cancelled, completed := 0, 0
	for attempt := 0; attempt < attempts; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		if attempt%3 != 2 {
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(attempt%6) * 30 * time.Microsecond)
		}
		err := rt.BackwardFilterPooledCtx(ctx, key, x, dy,
			func(dw *winrs.Tensor, e *serve.Entry, hit bool) error {
				completed++
				for i := range want.Data {
					if dw.Data[i] != want.Data[i] {
						t.Fatalf("attempt %d: served grouped gradient differs at %d", attempt, i)
					}
				}
				return nil
			})
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("attempt %d: %v", attempt, err)
			}
			cancelled++
		}
		if got := rt.Borrowed(); got != 0 {
			t.Fatalf("attempt %d: Borrowed() = %d, want 0", attempt, got)
		}
	}
	t.Logf("%d cancelled, %d completed of %d grouped attempts", cancelled, completed, attempts)
	if cancelled == 0 {
		t.Errorf("no grouped attempt was cancelled in %d attempts", attempts)
	}

	// The pools must be intact: an uncancelled follow-up serves correctly.
	if err := rt.BackwardFilterPooledCtx(context.Background(), key, x, dy,
		func(dw *winrs.Tensor, e *serve.Entry, hit bool) error {
			for i := range want.Data {
				if dw.Data[i] != want.Data[i] {
					t.Fatalf("follow-up gradient differs at %d", i)
				}
			}
			return nil
		}); err != nil {
		t.Fatalf("follow-up after cancellations: %v", err)
	}
	if got := rt.Borrowed(); got != 0 {
		t.Errorf("Borrowed() = %d after follow-up, want 0", got)
	}
}
