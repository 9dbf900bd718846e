// Package serve implements the WinRS serving runtime: a sharded LRU plan
// cache so configuration adaptation (paper §4) runs once per layer
// geometry, sync.Pool-backed workspace arenas so steady-state execution is
// allocation-free, a bounded worker pool with admission control so the
// service degrades predictably under overload, and an HTTP daemon
// (cmd/winrs-serve) exposing the three convolution passes plus /metrics
// and /healthz.
//
// The public winrs wrappers route through the same PlanCache type, so
// library users get plan reuse for free.
package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"winrs/internal/backend"
	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/tensor"
)

// PlanKey identifies one adapted plan: the layer geometry plus every knob
// that changes the outcome of configuration adaptation.
type PlanKey struct {
	Params conv.Params
	// FP16 selects the emulated Tensor-Core path.
	FP16 bool
	// NSM is the target device's SM count; non-positive means the default
	// hardware model (128 SMs).
	NSM int
	// Segments forces the segment count Z; non-positive means adaptive.
	Segments int
	// Algo selects the backward-filter algorithm: "" for WinRS (the
	// default — existing keys and the public wrappers are unchanged),
	// "auto" for cost-model dispatch (the decision is made once per key
	// and memoized with the entry), or an explicit backend name from
	// internal/backend ("winrs", "gemm", "direct", "fft", "winnf").
	Algo string
}

// precision maps the key's FP16 flag to the backend precision.
func (k PlanKey) precision() backend.Precision {
	if k.FP16 {
		return backend.FP16
	}
	return backend.FP32
}

// Options translates the key back into core configuration options.
func (k PlanKey) Options() []core.Option {
	var opts []core.Option
	if k.NSM > 0 {
		opts = append(opts, core.WithHardware(core.Hardware{NSM: k.NSM}))
	}
	if k.FP16 {
		opts = append(opts, core.WithFP16())
	}
	if k.Segments > 0 {
		opts = append(opts, core.WithSegments(k.Segments))
	}
	return opts
}

// hash is FNV-1a over the key's fields, used only for shard selection.
func (k PlanKey) hash() uint32 {
	h := uint32(2166136261)
	mix := func(v int) {
		h ^= uint32(v)
		h *= 16777619
	}
	p := k.Params
	for _, v := range []int{p.N, p.IH, p.IW, p.FH, p.FW, p.IC, p.OC, p.PH, p.PW, p.Groups, k.NSM, k.Segments} {
		mix(v)
	}
	if k.FP16 {
		mix(1)
	}
	for i := 0; i < len(k.Algo); i++ {
		mix(int(k.Algo[i]))
	}
	return h
}

// Entry is one cached plan together with its workspace pool: bucket arenas
// and output tensors sized for the plan, recycled across executions so the
// steady-state gradient path allocates nothing.
//
// An entry routes to exactly one backend. WinRS entries (Cfg non-nil)
// carry the adapted core.Config plus a workspace pool and run the
// original allocation-free pooled path; non-WinRS entries (Cfg nil) hold
// the backend executor instead and pool only the output tensor — those
// backends manage their own scratch.
type Entry struct {
	Key PlanKey
	// Cfg is the adapted WinRS plan; nil when the entry executes a
	// non-WinRS backend.
	Cfg *core.Config
	// Backend is the resolved backend name ("winrs" when Cfg is non-nil).
	Backend string
	// Decision is the dispatch record that resolved an Algo "auto" key
	// (prediction ranking plus any refinement measurements); zero-valued
	// for explicitly selected algorithms.
	Decision backend.Decision

	exec backend.Backend // executor for non-WinRS entries; nil otherwise

	ws  sync.Pool // *core.Workspace (WinRS entries only)
	out sync.Pool // *tensor.Float32, DW-shaped
}

func newEntry(key PlanKey, cfg *core.Config) *Entry {
	e := &Entry{Key: key, Cfg: cfg, Backend: backendWinRS}
	e.ws.New = func() any { return core.NewWorkspace(cfg) }
	// Uncleared: every WinRS execution stores each element of its result.
	e.out.New = func() any { return tensor.NewFloat32Uncleared(cfg.Params.DWShape()) }
	return e
}

// backendWinRS is the registry name of the paper's algorithm.
const backendWinRS = "winrs"

func newBackendEntry(key PlanKey, b backend.Backend) *Entry {
	e := &Entry{Key: key, Backend: b.Name(), exec: b}
	e.out.New = func() any { return tensor.NewFloat32(key.Params.DWShape()) }
	return e
}

// AcquireWorkspace borrows a bucket arena sized for the plan. Return it
// with ReleaseWorkspace when the execution's result has been read out.
func (e *Entry) AcquireWorkspace() *core.Workspace { return e.ws.Get().(*core.Workspace) }

// ReleaseWorkspace returns a borrowed arena to the pool.
func (e *Entry) ReleaseWorkspace(ws *core.Workspace) { e.ws.Put(ws) }

func (e *Entry) acquireOut() *tensor.Float32  { return e.out.Get().(*tensor.Float32) }
func (e *Entry) releaseOut(t *tensor.Float32) { e.out.Put(t) }

const cacheShards = 16

// PlanCache is a sharded LRU cache of adapted plans. Gets on different
// shards never contend; within a shard a mutex guards the map + LRU list.
// Capacity is enforced per shard (total capacity / 16, at least one), so a
// pathological key distribution can at worst halve the effective capacity,
// never grow it unboundedly.
type PlanCache struct {
	shardCap     int
	shards       [cacheShards]cacheShard
	hits, misses atomic.Uint64

	// dispatch configures Algo "auto" resolution; set once at
	// construction / via SetDispatchOptions, read on cache misses.
	dispatchMu   sync.Mutex
	dispatchOpts backend.Options
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[PlanKey]*list.Element
	lru list.List // front = most recently used; element values are *Entry
}

// NewPlanCache returns a cache holding about capacity plans (minimum 16,
// one per shard).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < cacheShards {
		capacity = cacheShards
	}
	c := &PlanCache{
		shardCap: (capacity + cacheShards - 1) / cacheShards,
		// Default "auto" behaviour: refine the top-2 predictions with one
		// bounded measurement each. The bound keeps a first request's
		// extra latency in the tens of milliseconds, and the result is
		// memoized with the entry, so the cost is once per geometry.
		dispatchOpts: backend.Options{Measure: true},
	}
	for i := range c.shards {
		c.shards[i].m = make(map[PlanKey]*list.Element)
	}
	return c
}

// SetDispatchOptions overrides how Algo "auto" keys are resolved (e.g.
// disabling measurement refinement). It affects future misses only.
func (c *PlanCache) SetDispatchOptions(o backend.Options) {
	c.dispatchMu.Lock()
	c.dispatchOpts = o
	c.dispatchMu.Unlock()
}

func (c *PlanCache) dispatchOptions() backend.Options {
	c.dispatchMu.Lock()
	defer c.dispatchMu.Unlock()
	return c.dispatchOpts
}

// Get returns the cached plan for key, running configuration adaptation
// (and, for Algo "auto" keys, backend dispatch) on a miss. The boolean
// reports a cache hit. Concurrent misses on the same key may run
// adaptation more than once; the first insert wins and the duplicates are
// dropped (Configure and Dispatch are deterministic up to measurement
// noise, so all results are equivalent).
func (c *PlanCache) Get(key PlanKey) (*Entry, bool, error) {
	s := &c.shards[key.hash()%cacheShards]
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*Entry), true, nil
	}
	s.mu.Unlock()
	c.misses.Add(1)

	// Algo resolution and configuration adaptation run outside the shard
	// lock: they are CPU-bound (dispatch may even measure) and must not
	// serialize hits behind them.
	e, err := c.buildEntry(key)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok { // lost the insert race
		s.lru.MoveToFront(el)
		return el.Value.(*Entry), false, nil
	}
	s.m[key] = s.lru.PushFront(e)
	for s.lru.Len() > c.shardCap {
		old := s.lru.Back()
		s.lru.Remove(old)
		delete(s.m, old.Value.(*Entry).Key)
	}
	return e, false, nil
}

// buildEntry resolves the key's algorithm to an executable entry.
func (c *PlanCache) buildEntry(key PlanKey) (*Entry, error) {
	reg := backend.Default()
	switch key.Algo {
	case "", backendWinRS:
		// The paper's algorithm, exactly as before: the zero-value Algo
		// keeps every pre-existing key (and the public winrs wrappers) on
		// the pooled WinRS path.
		cfg, err := core.Configure(key.Params, key.Options()...)
		if err != nil {
			return nil, err
		}
		return newEntry(key, cfg), nil
	case "auto":
		d, err := reg.Dispatch(key.Params, key.precision(), c.dispatchOptions())
		if err != nil {
			return nil, err
		}
		var e *Entry
		if d.Backend == backendWinRS {
			cfg, err := core.Configure(key.Params, key.Options()...)
			if err != nil {
				return nil, err
			}
			e = newEntry(key, cfg)
		} else {
			b, _ := reg.Get(d.Backend)
			e = newBackendEntry(key, b)
		}
		e.Decision = d
		return e, nil
	default:
		b, ok := reg.Get(key.Algo)
		if !ok {
			return nil, fmt.Errorf("serve: unknown algo %q", key.Algo)
		}
		if !b.Supports(key.Params, key.precision()) {
			return nil, fmt.Errorf("serve: algo %q does not support %v at %v",
				key.Algo, key.Params, key.precision())
		}
		return newBackendEntry(key, b), nil
	}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit and miss counts.
func (c *PlanCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Hits returns the cumulative hit count. Metric callbacks that export hits
// and misses as separate series read each counter exactly once through
// these split accessors instead of calling Stats twice and discarding half
// of each torn snapshot.
func (c *PlanCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative miss count; see Hits.
func (c *PlanCache) Misses() uint64 { return c.misses.Load() }
