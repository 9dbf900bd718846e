package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"winrs"
	"winrs/internal/fp16"
	"winrs/internal/serve"
	"winrs/internal/tensor"
)

// keyData is one plan key's request: the framed JSON header and the two
// operand payloads, sent back to back as one body without copying.
type keyData struct {
	g        geom
	head     []byte
	x, dy    []byte
	want     []byte // expected response when computed up front (every request checked)
	outBytes int
}

func (k *keyData) bodyLen() int64 { return int64(len(k.head) + len(k.x) + len(k.dy)) }

func (k *keyData) body() []byte {
	return append(append(append(make([]byte, 0, k.bodyLen()), k.head...), k.x...), k.dy...)
}

// operands decodes the key's payloads into tensors.
func (k *keyData) operands() (x, dy *tensor.Float32, err error) {
	p := k.g.p
	if !k.g.fp16 {
		x, dy = tensor.NewFloat32(p.XShape()), tensor.NewFloat32(p.DYShape())
		if err := serve.DecodeF32(k.x, x.Data); err != nil {
			return nil, nil, err
		}
		return x, dy, serve.DecodeF32(k.dy, dy.Data)
	}
	xh, dyh := tensor.NewHalf(p.XShape()), tensor.NewHalf(p.DYShape())
	if err := serve.DecodeF16(k.x, xh.Data); err != nil {
		return nil, nil, err
	}
	if err := serve.DecodeF16(k.dy, dyh.Data); err != nil {
		return nil, nil, err
	}
	return xh.ToFloat32(), dyh.ToFloat32(), nil
}

// libraryResult computes the key's gradient through the public library,
// which the server's default path must match bit for bit.
func (k *keyData) libraryResult() (*tensor.Float32, error) {
	x, dy, err := k.operands()
	if err != nil {
		return nil, err
	}
	pl, err := winrs.NewPlan(k.g.p, planOpts(k.g)...)
	if err != nil {
		return nil, err
	}
	if k.g.fp16 {
		return pl.ExecuteHalf(x.ToHalf(), dy.ToHalf()), nil
	}
	return pl.Execute(x, dy), nil
}

// buildKeys frames every key's request. Operand values, uniform in [0,1),
// are windows into two seeded pools (float32 and binary16) at seeded
// per-key offsets, so a large population needs no per-key buffers. With
// precompute, each key's expected response is computed up front.
func buildKeys(gs []geom, seed int64, precompute bool) ([]*keyData, error) {
	maxElems := 1 << 16
	for _, g := range gs {
		maxElems = max(maxElems, g.p.XShape().Elems(), g.p.DYShape().Elems())
	}
	n := 4 * maxElems
	rng := seeded(seed, streamOperands)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = rng.Float32()
	}
	f32Pool := serve.AppendF32(make([]byte, 0, 4*n), vals)
	f16Pool := make([]byte, 0, 2*n)
	for _, v := range vals {
		f16Pool = binary.LittleEndian.AppendUint16(f16Pool, uint16(fp16.FromFloat32(v)))
	}
	window := func(elems int, fp16 bool) []byte {
		off := rng.Intn(n - elems + 1)
		if fp16 {
			return f16Pool[2*off : 2*(off+elems)]
		}
		return f32Pool[4*off : 4*(off+elems)]
	}
	keys := make([]*keyData, len(gs))
	for i, g := range gs {
		hdr := serve.RequestHeader{Op: "backward_filter", Params: g.p}
		if g.fp16 {
			hdr.DType = serve.F16
		}
		if g.auto {
			hdr.Algo = "auto"
		}
		head, err := serve.EncodeRequest(hdr)
		if err != nil {
			return nil, err
		}
		k := &keyData{g: g, head: head, outBytes: 4 * g.p.DWShape().Elems(),
			x: window(g.p.XShape().Elems(), g.fp16), dy: window(g.p.DYShape().Elems(), g.fp16)}
		if precompute {
			dw, err := k.libraryResult()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", g.name, err)
			}
			k.want = serve.AppendF32(nil, dw.Data)
		}
		keys[i] = k
	}
	return keys, nil
}

// keyAt is the i-th key of a seeded uniform key sequence over n keys
// (splitmix64), computed without shared generator state so concurrent
// senders agree on the order.
func keyAt(seed, stream int64, i, n int) int {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// servingRun drives one winrs-serve process: requests go out on at most
// nproc connections, each response is validated, and failures are counted.
type servingRun struct {
	w    workload
	keys []*keyData
	seed int64
	tr   *tracer
	hc   *http.Client
	url  string

	attempted, failed atomic.Int64
	flopsDone         atomic.Int64
	mu                sync.Mutex
	first             map[int][]byte // first response per key whose result is checked after the run
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
}

// reqTimes are the client-side boundaries of one request, recorded for the
// traced run through net/http/httptrace.
type reqTimes struct {
	gotConn, wrote, firstByte time.Time
}

// do sends key k and reads the whole response into buf. It reports whether
// the response was a 200 of the right length whose bytes pass the key's
// check.
func (r *servingRun) do(k int, buf *bytes.Buffer, rt *reqTimes) bool {
	kd := r.keys[k]
	ctx := context.Background()
	if rt != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { rt.gotConn = time.Now() },
			WroteRequest:         func(httptrace.WroteRequestInfo) { rt.wrote = time.Now() },
			GotFirstResponseByte: func() { rt.firstByte = time.Now() },
		})
	}
	body := io.MultiReader(bytes.NewReader(kd.head), bytes.NewReader(kd.x), bytes.NewReader(kd.dy))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v1/backward_filter", body)
	if err != nil {
		return r.fail(k, err)
	}
	req.ContentLength = kd.bodyLen()
	resp, err := r.hc.Do(req)
	if err != nil {
		return r.fail(k, err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return r.fail(k, err)
	case resp.StatusCode != http.StatusOK:
		return r.fail(k, fmt.Errorf("status %s: %.200s", resp.Status, buf.String()))
	case buf.Len() != kd.outBytes:
		return r.fail(k, fmt.Errorf("response %d bytes, want %d", buf.Len(), kd.outBytes))
	case kd.want != nil && !bytes.Equal(buf.Bytes(), kd.want):
		return r.fail(k, fmt.Errorf("response differs from the library result"))
	}
	if kd.want == nil {
		r.mu.Lock()
		if _, seen := r.first[k]; !seen {
			r.first[k] = bytes.Clone(buf.Bytes())
		}
		r.mu.Unlock()
	}
	r.flopsDone.Add(kd.g.p.FLOPs())
	return true
}

func (r *servingRun) fail(k int, err error) bool {
	if n := r.failed.Add(1); n <= 5 {
		fmt.Fprintf(os.Stderr, "bench: request for %s failed: %v\n", r.keys[k].g.name, err)
	}
	return false
}

// warmPass sends one request for each warm-up key: the keys after the
// workload's own population (see runServing).
func (r *servingRun) warmPass() error {
	var buf bytes.Buffer
	for k := len(r.w.geoms); k < len(r.keys); k++ {
		if !r.do(k, &buf, nil) {
			return fmt.Errorf("warm-up request for %s failed", r.keys[k].g.name)
		}
	}
	return nil
}

// openSample is one open-loop request.
type openSample struct {
	latMS  float64 // from its due time to the last response byte
	lateMS float64 // generator lateness: send time minus when it could have been sent
	// exchangeMS is the HTTP exchange alone: send to last response byte.
	exchangeMS float64
	traced     bool
}

// poissonSchedule returns the due offsets of a seeded Poisson arrival
// process at rate per second over dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := seeded(seed, streamArrivals)
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * 1e9)
		if t >= dur {
			return due
		}
		due = append(due, t)
	}
}

// runOpen is the open-loop generator: `senders` goroutines take requests in
// due order, wait for each one's due time and call send(i, dueAt, sent).
// A request is timed from when it was due, so a stall also charges the
// requests queued behind it; lateness is how long after it could have been
// sent (its due time, or when a sender came free) it actually was. send
// reports whether the request was traced.
func runOpen(due []time.Duration, senders int, send func(i int, dueAt, sent time.Time) bool) []openSample {
	samples := make([]openSample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				free := time.Now()
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sent := time.Now()
				tr := send(i, dueAt, sent)
				end := time.Now()
				ready := dueAt
				if free.After(dueAt) {
					ready = free
				}
				samples[i] = openSample{latMS: ms(end.Sub(dueAt)), lateMS: ms(sent.Sub(ready)),
					exchangeMS: ms(end.Sub(sent)), traced: tr}
			}
		}()
	}
	wg.Wait()
	return samples
}

// openLoop sends requests on a seeded Poisson schedule at w.rate for dur,
// from nproc senders, each on its own connection. In a traced run a seeded
// half of the requests record client-side spans.
func (r *servingRun) openLoop(dur time.Duration) []openSample {
	bufs := make(chan *bytes.Buffer, nproc())
	for i := 0; i < nproc(); i++ {
		bufs <- new(bytes.Buffer)
	}
	return runOpen(poissonSchedule(r.seed, r.w.rate, dur), nproc(), func(i int, dueAt, sent time.Time) bool {
		buf := <-bufs
		defer func() { bufs <- buf }()
		var rt *reqTimes
		if r.tr != nil && traced(r.seed, i) {
			rt = &reqTimes{}
		}
		r.attempted.Add(1)
		r.do(keyAt(r.seed, streamKeys, i, len(r.w.geoms)), buf, rt)
		if rt != nil {
			r.traceRequest(i, dueAt, sent, time.Now(), rt)
		}
		return rt != nil
	})
}

// traceRequest records one traced request: the root from its due time to
// the last byte, with children for the generator wait, connection wait,
// request write, server time (write done → first byte) and body read.
func (r *servingRun) traceRequest(op int, due, sent, end time.Time, rt *reqTimes) {
	id := r.tr.add(0, op, "request", due, end)
	r.tr.add(id, op, "loadgen.wait", due, sent)
	if rt.gotConn.IsZero() || rt.wrote.IsZero() || rt.firstByte.IsZero() {
		r.tr.add(id, op, "http.exchange", sent, end)
		return
	}
	r.tr.add(id, op, "http.conn", sent, rt.gotConn)
	r.tr.add(id, op, "http.write", rt.gotConn, rt.wrote)
	r.tr.add(id, op, "http.server", rt.wrote, rt.firstByte)
	r.tr.add(id, op, "http.read", rt.firstByte, end)
}

// sleepUntil blocks until t: a timer sleep to within 200µs, then a yield
// loop, so the generator is not late by a timer's slack.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 200*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs nproc senders back to back for dur, each sending its
// next request as soon as the previous one completes. It runs in one-second
// segments and returns the direct-equivalent GFLOP/s completed in each.
func (r *servingRun) closedLoop(dur time.Duration) []float64 {
	var next atomic.Int64
	var rates []float64
	for t := time.Duration(0); t < dur; t += time.Second {
		var wg sync.WaitGroup
		f0 := r.flopsDone.Load()
		start := time.Now()
		stop := start.Add(min(time.Second, dur-t))
		for s := 0; s < nproc(); s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for time.Now().Before(stop) {
					i := int(next.Add(1) - 1)
					r.attempted.Add(1)
					r.do(keyAt(r.seed, streamClosedKeys, i, len(r.w.geoms)), &buf, nil)
				}
			}()
		}
		wg.Wait()
		rates = append(rates, float64(r.flopsDone.Load()-f0)/time.Since(start).Seconds()/1e9)
	}
	return rates
}

// checkFirst validates each key's first response after the run: bitwise
// against the library for keys on the default (WinRS) path, within twice
// the eq. (7) bound of the library result for "auto" keys, whose backend
// the server chooses by measurement. It returns how many keys failed.
func (r *servingRun) checkFirst() int64 {
	var bad int64
	for k, got := range r.first {
		kd := r.keys[k]
		want, err := kd.libraryResult()
		if err == nil && !kd.g.auto && !bytes.Equal(got, serve.AppendF32(nil, want.Data)) {
			err = fmt.Errorf("response differs bitwise from the library result")
		}
		if err == nil && kd.g.auto {
			bound := 2 * errBound(kd.g)
			for i, w := range want.Data {
				g := math.Float32frombits(binary.LittleEndian.Uint32(got[4*i:]))
				if e := math.Abs(float64(g) - float64(w)); !(e <= bound) {
					err = fmt.Errorf("auto response element %d: %g vs library %g exceeds %.3g", i, g, w, bound)
					break
				}
			}
		}
		if err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "# check FAIL %s (%v): %v\n", kd.g.name, kd.g.p, err)
		}
	}
	return bad
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
