package serve_test

// In-process router tests: two real serve.Servers behind httptest listeners
// with a Router fronting them. Stickiness is asserted two ways — the
// X-Winrs-Shard header must be constant per geometry, and the fleet-wide
// plans_cached sum must equal the number of distinct geometries (each plan
// built exactly once, on exactly one shard).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"winrs"
	"winrs/internal/serve"
)

type routerFixture struct {
	router *serve.Router
	front  *httptest.Server
	nodes  []*httptest.Server
}

func newRouterFixture(t *testing.T, nodeCount int) *routerFixture {
	t.Helper()
	f := &routerFixture{}
	var urls []string
	for i := 0; i < nodeCount; i++ {
		s := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		f.nodes = append(f.nodes, ts)
		urls = append(urls, ts.URL)
	}
	f.router = serve.NewRouter(serve.RouterConfig{Nodes: urls})
	f.front = httptest.NewServer(f.router.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// plansCached scrapes one node's /healthz for its plan-cache population.
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

// postViaRouter posts through the front and returns status, body, and the
// shard header.
func postViaRouter(url string, body []byte) (int, []byte, string, error) {
	resp, err := http.Post(url+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get("X-Winrs-Shard"), err
}

func routerGeos(n int) []winrs.Params {
	geos := make([]winrs.Params, n)
	for i := range geos {
		geos[i] = winrs.Params{
			N: 1, IH: 10 + 2*i, IW: 10 + 2*i, FH: 3, FW: 3,
			IC: 1 + i%3, OC: 1 + (i+1)%3, PH: 1, PW: 1,
		}
	}
	return geos
}

// TestRouterShardStickiness drives at least 12 distinct geometries, three
// requests each, through a 2-node fleet: every response must be correct,
// every geometry must stay on the shard the ring picks for its routing
// hash, both shards must see traffic, and the fleet must hold exactly one
// plan per geometry. The ring places nodes by their (random) listener
// ports, so geometries are drawn from routerGeos until the ring maps at
// least one to each node — a property of this run's ring, checked up
// front, rather than luck.
func TestRouterShardStickiness(t *testing.T) {
	const minGeos, maxCandidates = 12, 64
	f := newRouterFixture(t, 2)
	type geo struct {
		p     winrs.Params
		x, dy *winrs.Tensor
		body  []byte
		node  string // the ring's pick for the frame's routing hash
	}
	var geos []geo
	owners := map[string]bool{}
	for i, p := range routerGeos(maxCandidates) {
		if len(geos) >= minGeos && len(owners) == len(f.nodes) {
			break
		}
		x, dy := randLayer(t, int64(500+i), p)
		body := frameF32(t, p, x, dy)
		hdr, _, err := serve.DecodeRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		node, ok := f.router.Ring().Pick(serve.RouteHash(hdr))
		if !ok {
			t.Fatal("ring has no nodes")
		}
		if len(geos) >= minGeos && owners[node] {
			continue // only a geometry owned by an uncovered node helps now
		}
		geos = append(geos, geo{p, x, dy, body, node})
		owners[node] = true
	}
	if len(owners) < len(f.nodes) {
		t.Fatalf("%d candidate geometries never reached all %d nodes; the ring is not spreading", maxCandidates, len(f.nodes))
	}

	seen := map[string]bool{}
	for i, g := range geos {
		lib, err := winrs.BackwardFilter(g.p, g.x, g.dy)
		if err != nil {
			t.Fatal(err)
		}
		want := serve.AppendF32(nil, lib.Data)
		for rep := 0; rep < 3; rep++ {
			status, out, shard, err := postViaRouter(f.front.URL, g.body)
			if err != nil {
				t.Fatalf("geo %d rep %d: %v", i, rep, err)
			}
			if status != http.StatusOK {
				t.Fatalf("geo %d rep %d: status %d: %s", i, rep, status, out)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("geo %d rep %d: forwarded response differs from the library gradient", i, rep)
			}
			if shard != g.node {
				t.Fatalf("geo %d rep %d: X-Winrs-Shard %q, ring picks %q", i, rep, shard, g.node)
			}
			seen[shard] = true
		}
	}
	if len(seen) < len(f.nodes) {
		t.Errorf("traffic reached %d of %d shards", len(seen), len(f.nodes))
	}

	total := 0
	for _, n := range f.nodes {
		total += plansCached(t, n.URL)
	}
	if total != len(geos) {
		t.Errorf("fleet holds %d plans for %d distinct geometries; stickiness leaked duplicates", total, len(geos))
	}
}

// TestRouterAdminAddDrain exercises the live-membership endpoints: drain
// must stop new picks for the node while the other keeps serving, and a
// re-add must restore it.
func TestRouterAdminAddDrain(t *testing.T) {
	f := newRouterFixture(t, 2)
	drained := f.nodes[0].URL

	resp, err := http.Post(f.front.URL+"/admin/nodes/drain?node="+drained+"&timeout=5s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}

	geos := routerGeos(8)
	p0 := geos[0]
	x, dy := randLayer(t, 600, p0)
	for i, p := range geos {
		x, dy := randLayer(t, int64(600+i), p)
		body := frameF32(t, p, x, dy)
		status, out, shard, err := postViaRouter(f.front.URL, body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("geo %d after drain: status %d err %v: %s", i, status, err, out)
		}
		if shard == drained {
			t.Fatalf("geo %d routed to the drained node", i)
		}
	}

	var ring struct {
		Active int `json:"active"`
		Nodes  []struct {
			Addr     string `json:"addr"`
			Draining bool   `json:"draining"`
		} `json:"nodes"`
	}
	rr, err := http.Get(f.front.URL + "/admin/ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(rr.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if ring.Active != 1 || len(ring.Nodes) != 2 {
		t.Errorf("ring after drain: active=%d nodes=%d, want 1 active of 2", ring.Active, len(ring.Nodes))
	}

	// Re-add restores the node; the drained geometry set must again reach
	// both shards eventually (at least serve correctly through the front).
	resp, err = http.Post(f.front.URL+"/admin/nodes/add?node="+drained, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add: status %d", resp.StatusCode)
	}
	body := frameF32(t, p0, x, dy)
	status, out, _, err := postViaRouter(f.front.URL, body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("request after re-add: status %d err %v: %s", status, err, out)
	}
}

// TestRouterDrainWaitsForInflight holds a forward in flight with a fault
// hook and asserts the drain endpoint blocks until it completes — the
// zero-dropped-requests property the loadtest exercises across processes.
func TestRouterDrainWaitsForInflight(t *testing.T) {
	s := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
	node := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		node.Close()
		s.Close()
	})
	rt := serve.NewRouter(serve.RouterConfig{Nodes: []string{node.URL}})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x, dy := randLayer(t, 700, p)
	lib, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.AppendF32(nil, lib.Data)
	body := frameF32(t, p, x, dy)

	slow := make(chan error, 1)
	go func() {
		status, out, _, err := postViaRouter(front.URL, body)
		if err == nil && (status != http.StatusOK || !bytes.Equal(out, want)) {
			err = fmt.Errorf("in-flight request during drain: status %d", status)
		}
		slow <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("forward never reached the node")
	}

	drainDone := make(chan string, 1)
	go func() {
		resp, err := http.Post(front.URL+"/admin/nodes/drain?node="+node.URL+"&timeout=10s", "", nil)
		if err != nil {
			drainDone <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			drainDone <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
			return
		}
		drainDone <- ""
	}()

	// The drain must still be waiting while the forward is held.
	select {
	case msg := <-drainDone:
		t.Fatalf("drain returned (%q) while a forward was in flight", msg)
	case <-time.After(300 * time.Millisecond):
	}

	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight request failed across the drain: %v", err)
	}
	select {
	case msg := <-drainDone:
		if msg != "" {
			t.Fatalf("drain failed: %s", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete after the in-flight forward finished")
	}

	if !strings.Contains(scrapeRouterMetrics(t, front.URL), "winrs_router_nodes_active 0") {
		t.Error("router metrics do not show zero active nodes after the drain")
	}
}

func scrapeRouterMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterNoActiveNode pins the 503 + Retry-After contract when the ring
// is empty.
func TestRouterNoActiveNode(t *testing.T) {
	rt := serve.NewRouter(serve.RouterConfig{})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x, dy := randLayer(t, 701, p)
	body := frameF32(t, p, x, dy)
	resp, err := http.Post(front.URL+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header on ring-empty rejection")
	}
}
