package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct{ Key, Value string }

// Registry holds a set of metrics and renders them in Prometheus text
// exposition format. Registration takes a mutex; updates on the returned
// handles are lock-free atomics. A Registry is safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	ms []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry: runtime gauges live here, and any
// component without a narrower scope may register into it.
var Default = newDefaultRegistry()

func newDefaultRegistry() *Registry {
	r := NewRegistry()
	r.GaugeFunc("winrs_process_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("winrs_process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("winrs_process_gomaxprocs",
		"Value of GOMAXPROCS.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	return r
}

// metric is one registered series (or series family member).
type metric interface {
	id() metricID
	// write emits the metric's sample lines (no HELP/TYPE headers).
	write(w io.Writer)
}

type metricID struct {
	name, typ, help, labels string
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register appends m unless an identical (name, labels) series exists, in
// which case the existing one is returned so duplicate registration is
// idempotent. Registering the same series under a different type panics —
// that is a programming error, not an operational condition.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.ms {
		if e.id().name == m.id().name && e.id().labels == m.id().labels {
			if e.id().typ != m.id().typ {
				panic("obs: metric " + m.id().name + " re-registered with a different type")
			}
			return e
		}
	}
	r.ms = append(r.ms, m)
	return m
}

// WriteText renders every registered metric in Prometheus text format,
// grouping series families under one HELP/TYPE header. It never fails on
// the metrics side; the returned error is the writer's.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.ms))
	copy(ms, r.ms)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		a, b := ms[i].id(), ms[j].id()
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels < b.labels
	})
	cw := &countingWriter{w: w}
	prev := ""
	for _, m := range ms {
		if id := m.id(); id.name != prev {
			prev = id.name
			if id.help != "" {
				fmt.Fprintf(cw, "# HELP %s %s\n", id.name, id.help)
			}
			fmt.Fprintf(cw, "# TYPE %s %s\n", id.name, id.typ)
		}
		m.write(cw)
	}
	return cw.err
}

// countingWriter latches the first write error so WriteTo need not check
// every Fprintf.
type countingWriter struct {
	w   io.Writer
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return len(p), nil
	}
	n, err := c.w.Write(p)
	c.err = err
	return n, nil
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- Counter ---

// Counter is a monotonically increasing uint64.
type Counter struct {
	mid metricID
	v   atomic.Uint64
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{mid: metricID{name, "counter", help, renderLabels(labels)}}
	return r.register(c).(*Counter)
}

// Add increments the counter.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

func (c *Counter) id() metricID { return c.mid }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", c.mid.name, c.mid.labels, c.v.Load())
}

// --- CounterFunc ---

// counterFunc is a counter whose value is read from a callback at scrape
// time (cumulative values owned elsewhere, e.g. the plan cache).
type counterFunc struct {
	mid metricID
	fn  func() uint64
}

// CounterFunc registers a callback-backed counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&counterFunc{metricID{name, "counter", help, renderLabels(labels)}, fn})
}

func (c *counterFunc) id() metricID { return c.mid }
func (c *counterFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", c.mid.name, c.mid.labels, c.fn())
}

// --- Gauge ---

// Gauge is a settable float64 value.
type Gauge struct {
	mid  metricID
	bits atomic.Uint64
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{mid: metricID{name, "gauge", help, renderLabels(labels)}}
	return r.register(g).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) id() metricID { return g.mid }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %s\n", g.mid.name, g.mid.labels, formatFloat(g.Value()))
}

// --- GaugeFunc ---

type gaugeFunc struct {
	mid metricID
	fn  func() float64
}

// GaugeFunc registers a callback-backed gauge (queue depths, pool sizes…).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&gaugeFunc{metricID{name, "gauge", help, renderLabels(labels)}, fn})
}

func (g *gaugeFunc) id() metricID { return g.mid }
func (g *gaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %s\n", g.mid.name, g.mid.labels, formatFloat(g.fn()))
}

// --- Histogram ---

// Histogram is a striped geometric duration histogram (see obs.go for the
// bucket scheme): lock-free Observe, approximate upper-bound quantiles, and
// Prometheus histogram exposition (cumulative le-buckets plus _sum/_count)
// with optional summary-style quantile lines for human scrapes.
type Histogram struct {
	mid       metricID
	labels    []Label
	quantiles []float64
	h         hist
	count     atomic.Uint64
	sumNS     atomic.Int64
}

// Histogram registers (or returns the existing) histogram. quantiles lists
// the summary points additionally exported (e.g. 0.5, 0.9, 0.99); nil
// exports buckets only.
func (r *Registry) Histogram(name, help string, quantiles []float64, labels ...Label) *Histogram {
	h := &Histogram{
		mid:       metricID{name, "histogram", help, renderLabels(labels)},
		labels:    labels,
		quantiles: quantiles,
	}
	return r.register(h).(*Histogram)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.h.record(d)
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// Quantile returns the approximate q-quantile in seconds and the number of
// observations.
func (h *Histogram) Quantile(q float64) (seconds float64, count uint64) {
	counts, total := h.h.snapshot()
	return quantileOf(&counts, total, q), total
}

func (h *Histogram) id() metricID { return h.mid }

func (h *Histogram) write(w io.Writer) {
	counts, total := h.h.snapshot()
	writeHistSamples(w, h.mid.name, h.labels, &counts, total,
		float64(h.sumNS.Load())/1e9, h.quantiles)
}

// writeHistSamples renders one histogram series: sparse cumulative
// le-buckets (empty leading/inner runs are skipped — the cumulative value
// is unchanged there), +Inf, _sum, _count, and quantile lines.
func writeHistSamples(w io.Writer, name string, labels []Label,
	counts *[histBuckets]uint64, total uint64, sumSeconds float64, quantiles []float64) {
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			renderLabels(append(append([]Label{}, labels...),
				Label{"le", formatFloat(histBoundSeconds(i))})), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name,
		renderLabels(append(append([]Label{}, labels...), Label{"le", "+Inf"})), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(sumSeconds))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), total)
	for _, q := range quantiles {
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", name,
			renderLabels(append(append([]Label{}, labels...),
				Label{"quantile", formatFloat(q)})),
			formatFloat(quantileOf(counts, total, q)))
	}
}
