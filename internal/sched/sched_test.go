package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every unit index must be executed exactly once, whatever the pool
// width, chunk size and total.
func TestRunExecutesEachUnitOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		p := NewPool(width)
		for _, total := range []int{0, 1, 2, 3, 7, 64, 1000} {
			for _, chunk := range []int{0, 1, 3, 1000} {
				counts := make([]atomic.Int32, total)
				p.RunFunc(total, chunk, func(lo, hi int) {
					if lo < 0 || hi > total || lo >= hi {
						t.Errorf("width=%d total=%d chunk=%d: bad range [%d,%d)", width, total, chunk, lo, hi)
					}
					for i := lo; i < hi; i++ {
						counts[i].Add(1)
					}
				})
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("width=%d total=%d chunk=%d: unit %d ran %d times", width, total, chunk, i, got)
					}
				}
			}
		}
		p.Close()
	}
}

// Run must return only after every unit has completed (happens-before):
// writes to a plain slice from worker goroutines must be visible.
func TestRunHappensBefore(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const total = 500
	for iter := 0; iter < 50; iter++ {
		out := make([]int, total)
		p.RunFunc(total, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i * i
			}
		})
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("iter %d: unit %d result not visible after Run", iter, i)
			}
		}
	}
}

// Concurrent submitters must co-schedule on one pool without interference.
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				const total = 257
				var sum atomic.Int64
				p.RunFunc(total, 0, func(lo, hi int) {
					s := int64(0)
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					sum.Add(s)
				})
				if want := int64(total * (total - 1) / 2); sum.Load() != want {
					t.Errorf("goroutine %d iter %d: sum %d, want %d", g, iter, sum.Load(), want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// A nil pool and a width-1 pool both run inline.
func TestInlineDegenerateCases(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(1), NewPool(0)} {
		if got := p.Workers(); got != 1 {
			t.Errorf("Workers() = %d, want 1", got)
		}
		ran := 0
		p.RunFunc(10, 0, func(lo, hi int) { ran += hi - lo })
		if ran != 10 {
			t.Errorf("inline pool ran %d units, want 10", ran)
		}
	}
}

// The default pool is process-wide and sized to GOMAXPROCS at first use.
func TestDefaultPool(t *testing.T) {
	p := Default()
	if p != Default() {
		t.Error("Default() is not a singleton")
	}
	if p.Workers() < 1 || p.Workers() > runtime.NumCPU()+64 {
		t.Errorf("default pool width %d out of range", p.Workers())
	}
}

// Steady-state Run through a warmed pool must not allocate: descriptors
// are pooled and the Task is caller-owned.
func TestRunAllocsSteadyState(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	task := &countTask{}
	p.Run(64, 4, task) // warm the descriptor pool
	allocs := testing.AllocsPerRun(100, func() { p.Run(64, 4, task) })
	// One batch descriptor may still be minted when the sync.Pool was
	// drained by GC mid-measurement; more than that is a leak.
	if allocs > 1 {
		t.Errorf("steady-state Run allocates %v per run, want ≤ 1", allocs)
	}
}

type countTask struct{ n atomic.Int64 }

func (c *countTask) Run(lo, hi int) { c.n.Add(int64(hi - lo)) }

// A nil cancel handle must leave RunBatch identical to Run, and an
// uncancelled handle must not change what executes.
func TestRunBatchUncancelled(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := NewPool(width)
		task := &countTask{}
		var c Batch
		p.RunBatch(1000, 7, task, &c)
		p.RunBatch(1000, 7, task, nil)
		if got := task.n.Load(); got != 2000 {
			t.Errorf("width %d: ran %d units, want 2000", width, got)
		}
		p.Close()
	}
}

// A handle cancelled before submission must prevent any unit from running.
func TestRunBatchCancelledUpfront(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := NewPool(width)
		task := &countTask{}
		var c Batch
		c.Cancel()
		if !c.Cancelled() {
			t.Fatal("Cancelled() false after Cancel")
		}
		p.RunBatch(1000, 7, task, &c)
		if got := task.n.Load(); got != 0 {
			t.Errorf("width %d: cancelled batch ran %d units", width, got)
		}
		p.Close()
	}
}

// A batch whose deadline has passed is cancelled with no Cancel call, and
// RunBatch runs none of it; a deadline still ahead cancels nothing.
func TestRunBatchDeadlinePassed(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := NewPool(width)
		task := &countTask{}
		c := Batch{Deadline: time.Now().Add(time.Hour)}
		if c.Cancelled() {
			t.Fatal("Cancelled() true an hour before the deadline")
		}
		c.Deadline = time.Now().Add(-time.Millisecond)
		if !c.Cancelled() {
			t.Fatal("Cancelled() false after the deadline")
		}
		p.RunBatch(1000, 7, task, &c)
		if got := task.n.Load(); got != 0 {
			t.Errorf("width %d: expired batch ran %d units", width, got)
		}
		p.Close()
	}
}

// cancelTask cancels its own batch during the trip-th executed chunk, so
// cancellation lands mid-run, and counts the chunks that start after the
// cancel is visible.
type cancelTask struct {
	c      *Batch
	chunks atomic.Int64
	units  atomic.Int64
	late   atomic.Int64 // chunks whose Run began with c already cancelled
	trip   int64
}

func (s *cancelTask) Run(lo, hi int) {
	if s.c.Cancelled() {
		s.late.Add(1)
	}
	if s.chunks.Add(1) == s.trip {
		s.c.Cancel()
	}
	s.units.Add(int64(hi - lo))
}

// Cancelling mid-run must stop the batch within chunk-claim granularity:
// chunks already claimed finish, everything after is skipped, and RunBatch
// still returns through the normal completion protocol. Once the cancel
// is visible, only a participant that claimed its chunk before it can
// still start one: at most W−1 chunks, whatever the others ran while the
// canceller was descheduled.
func TestRunBatchCancelMidRun(t *testing.T) {
	const total, chunk = 100000, 10
	for _, width := range []int{1, 4} {
		p := NewPool(width)
		task := &cancelTask{c: &Batch{}, trip: 3}
		p.RunBatch(total, chunk, task, task.c)
		ran := task.units.Load()
		if late := task.late.Load(); late > int64(width)-1 {
			t.Errorf("width %d: %d chunks started after the cancel, want ≤ %d", width, late, width-1)
		}
		if ran < int64(chunk)*task.trip {
			t.Errorf("width %d: only %d units ran, want ≥ %d (claimed chunks must finish)",
				width, ran, int64(chunk)*task.trip)
		}
		p.Close()
	}
}

// After a cancelled RunBatch returns, the happens-before edge must hold:
// no participant touches the task again, so its state is safe to reuse
// immediately (what the serving runtime relies on to recycle workspaces).
func TestRunBatchCancelQuiescent(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for iter := 0; iter < 50; iter++ {
		task := &cancelTask{c: &Batch{}, trip: 2}
		p.RunBatch(10000, 5, task, task.c)
		before := task.units.Load()
		// Any straggler still inside Run would bump units after return;
		// the read-read pair under -race is the real assertion.
		if after := task.units.Load(); after != before {
			t.Fatalf("iter %d: task still running after cancelled RunBatch returned", iter)
		}
	}
}

// parkTask blocks every chunk it runs until park is closed, announcing
// each entry on entered.
type parkTask struct {
	entered chan struct{}
	park    chan struct{}
}

func (s *parkTask) Run(lo, hi int) {
	s.entered <- struct{}{}
	<-s.park
}

// runHolding runs a 2-chunk batch whose closure holds a 1 MiB object and
// returns a channel that is closed when the object is finalized. It is a
// separate frame so the caller's stack holds no pointer to the object.
//
//go:noinline
func runHolding(p *Pool) <-chan struct{} {
	finalized := make(chan struct{})
	obj := new([1 << 20]byte)
	runtime.SetFinalizer(obj, func(*[1 << 20]byte) { close(finalized) })
	p.RunFunc(2, 1, func(lo, hi int) { obj[lo]++ })
	return finalized
}

// A finished batch must not keep its task reachable. With both
// participants of a width-2 pool parked inside one batch, the next batch's
// helper token stays queued while its submitter runs every chunk alone;
// that token must not pin the task's closure, and through it the closure's
// operands, until the worker gets to drain it.
func TestRunBatchFinishedReleasesTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(2)
	defer p.Close()
	hold := &parkTask{entered: make(chan struct{}), park: make(chan struct{})}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		p.RunBatch(2, 1, hold, nil)
	}()
	<-hold.entered
	<-hold.entered // submitter and worker are both inside the first batch

	finalized := runHolding(p)
	deadline := time.Now().Add(2 * time.Second)
	released := false
	for !released && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-finalized:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(hold.park)
	<-parked
	if !released {
		t.Fatal("a finished batch's task stayed reachable while its helper token was queued")
	}
}

// For visits every index exactly once and calls nothing for n = 0.
func TestForCoversAll(t *testing.T) {
	n := 100
	hits := make([]atomic.Int32, n)
	For(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	For(0, func(int) { t.Error("should not be called") })
}

// Goroutines stay in the pool and in serve's request dispatcher: every
// other parallel loop under internal/ runs on the pool (Pool.Run, For),
// so one process has one scheduler. Parses every non-test Go file under
// internal/ and fails on a go statement outside internal/sched and
// internal/serve.
func TestGoStatementsOnlyInSchedAndServe(t *testing.T) {
	root := ".." // internal/, from this package's directory
	allowed := map[string]bool{"sched": true, "serve": true}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if allowed[strings.Split(filepath.ToSlash(rel), "/")[0]] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside internal/sched and internal/serve; run the loop on sched instead",
					fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
