package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one winrs-serve process under test, started with default
// flags apart from its loopback listen address.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startServer execs bin and waits until /healthz answers 200. It retries on
// a fresh port when the one it picked was taken in between.
func startServer(bin string) (*serverProc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *serverProc
		if s, err = startServerOnce(bin); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func startServerOnce(bin string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if healthy(s.url) {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%s exited before /healthz answered", bin)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("winrs-serve did not become healthy within 20s")
		}
	}
}

func healthy(url string) bool {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit, and kills it if it is
// still running after the server's own drain budget.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape is one /metrics snapshot: every sample line keyed by its series
// (name plus label set).
type scrape map[string]float64

func (s *serverProc) scrape(c *http.Client) (scrape, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for one series.
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// histP50 returns the median of the requests a cumulative-bucket histogram
// observed between two snapshots, as the upper bound of the bucket that
// holds it (the server's buckets are 25% wide), in seconds.
func histP50(before, after scrape, name string) float64 {
	prefix := name + `_bucket{le="`
	cum := func(s scrape) map[float64]float64 {
		m := map[float64]float64{}
		for k, v := range s {
			if le, ok := strings.CutPrefix(k, prefix); ok {
				le = strings.TrimSuffix(le, `"}`)
				if f, err := strconv.ParseFloat(le, 64); err == nil {
					m[f] = v
				}
			}
		}
		return m
	}
	b, a := cum(before), cum(after)
	var les []float64
	for le := range a {
		les = append(les, le)
	}
	sort.Float64s(les)
	// Buckets are sparse: a missing bound keeps the cumulative count of the
	// nearest bound below it.
	at := func(m map[float64]float64, le float64) float64 {
		best, v := -1.0, 0.0
		for k, c := range m {
			if k <= le && k > best {
				best, v = k, c
			}
		}
		return v
	}
	total := delta(before, after, name+"_count")
	if total <= 0 {
		return 0
	}
	for _, le := range les {
		if at(a, le)-at(b, le) >= total/2 {
			return le
		}
	}
	return les[len(les)-1]
}
