package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into the system. Roots are
// library steps or requests; children are the calls inside them. Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // step or request id shared by a root and its children
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfFracs returns, for every root span named root, the share of its
// duration that none of its children cover: a layer's self time is its
// span minus the union of its children's intervals.
func (t *tracer) selfFracs(root string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.children()
	var out []float64
	for _, s := range t.spans {
		if s.Name != root || s.Parent != 0 || s.End <= s.Start {
			continue
		}
		covered := unionNS(kids[s.ID], s.Start, s.End)
		out = append(out, float64(s.End-s.Start-covered)/float64(s.End-s.Start))
	}
	return out
}

// children maps each span id to its child spans; t.mu must be held.
func (t *tracer) children() map[int][]span {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// unionNS returns how many nanoseconds of [lo, hi) the spans cover.
func unionNS(ss []span, lo, hi int64) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	cur := lo
	for _, s := range ss {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// summary prints each span name's count, median duration and median self
// time (duration minus the union of its children), roots first.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	kids := t.children()
	type agg struct {
		root      bool
		dur, self []float64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{root: s.Parent == 0}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.dur = append(a.dur, float64(d)/1e6)
		a.self = append(a.self, float64(d-unionNS(kids[s.ID], s.Start, s.End))/1e6)
	}
	t.mu.Unlock()
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]].root && !byName[names[j]].root })
	fmt.Fprintf(w, "# spans: %-36s %8s %12s %12s\n", "name", "count", "p50_ms", "self_p50_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "# spans: %-36s %8d %12.4f %12.4f\n", n, len(a.dur), median(a.dur), median(a.self))
	}
}

// write saves the spans as JSON to path, creating its directory.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
