package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cqad process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{} // closed once the process has exited
	stderr bytes.Buffer
	mu     sync.Mutex // guards stderr while the process writes it
}

type lockedWriter struct{ d *daemon }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.stderr.Write(p)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts cqad with its default flags on a free loopback port
// and waits until it answers HTTP. The process is killed if this process
// dies first, so no daemon outlives a run.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port))
		d.cmd.Stderr = lockedWriter{d}
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting cqad: %w", err)
		}
		go func() {
			_ = d.cmd.Wait()
			close(d.done)
		}()
		if lastErr = d.waitReady(30 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

// waitReady polls until any HTTP response arrives (an unknown tenant's 404
// proves the mux is serving).
func (d *daemon) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("cqad exited during start-up: %s", d.log())
		default:
		}
		resp, err := c.Get(d.base + "/v1/tenants/ready/sessions/ready/answers/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cqad not ready after %v: %s", limit, d.log())
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// stop interrupts cqad (graceful shutdown), kills it if it lingers, and
// waits until it has exited.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// newClient returns an HTTP client holding at most one keep-alive
// connection, so a closed-loop client is exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// result is the outcome of one request.
type result struct {
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) result {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return result{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return result{lat: time.Since(t0), err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{lat: time.Since(t0), status: resp.StatusCode, body: b, err: err}
}

// sessionURLs are one session's endpoint URLs, built before any clock.
type sessionURLs struct {
	create, prepare, apply, query, answers string
}

func urlsFor(base string, ls *liveSession) sessionURLs {
	t := base + "/v1/tenants/" + ls.tenant + "/sessions"
	s := t + "/" + ls.name
	return sessionURLs{
		create:  t,
		prepare: s + "/prepare",
		apply:   s + "/apply",
		query:   s + "/query",
		answers: s + "/answers/" + ls.watchName,
	}
}

func (u sessionURLs) forOp(k opKind) (method, url string) {
	switch k {
	case kApply, kPass:
		return http.MethodPost, u.apply
	case kQuery, kPossible:
		return http.MethodPost, u.query
	default:
		return http.MethodGet, u.answers
	}
}

// setupLive starts cqad, creates every session and registers its standing
// query; it returns the daemon, the elapsed set-up time (daemon start to
// last prepare) and the prepare responses.
func setupLive(bin string, w *liveWorkload) (*daemon, time.Duration, []result, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient()
	defer closeClient(c)
	preps := make([]result, len(w.sessions))
	for i, ls := range w.sessions {
		u := urlsFor(d.base, ls)
		r := do(c, http.MethodPost, u.create, ls.create)
		if r.err != nil || r.status != http.StatusCreated {
			d.stop()
			return nil, 0, nil, fmt.Errorf("creating %s/%s: status %d, %v, %s", ls.tenant, ls.name, r.status, r.err, truncate(r.body))
		}
		preps[i] = do(c, http.MethodPost, u.prepare, ls.prepare)
		if preps[i].err != nil || preps[i].status != http.StatusCreated {
			d.stop()
			return nil, 0, nil, fmt.Errorf("preparing on %s/%s: status %d, %v, %s", ls.tenant, ls.name, preps[i].status, preps[i].err, truncate(preps[i].body))
		}
	}
	return d, time.Since(t0), preps, nil
}

// liveRun is the measured outcome of a live workload.
type liveRun struct {
	setups   []time.Duration
	results  [][]result // per client, aligned with w.clients
	segs     []segment  // the timed window, segment by segment
	refMS    []float64
	rssMB    float64
	exited   bool
	preps    []result
	warmWall time.Duration
}

// segments is the number of equal op-count segments of the timed window.
// Clients pause at the barrier after each, where the host reference kernel
// and a throwaway set-up run; rates and tails are medians over segments.
const segments = 10

// segBound is the index of client ci's first op of timed segment s
// (s = segments gives the end of its stream).
func (w *liveWorkload) segBound(ci, s int) int {
	n := len(w.clients[ci]) - w.warm[ci]
	return w.warm[ci] + n*s/segments
}

// runLive sets cqad up, runs the untimed warm-up and then the timed ops in
// segments separated by barriers, and stops the daemon. Every client is one
// goroutine with one connection, holding its sessions and waiting for every
// reply.
func runLive(bin string, w *liveWorkload) (*liveRun, error) {
	run := &liveRun{}
	d, el, preps, err := setupLive(bin, w)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run.setups, run.preps = []time.Duration{el}, preps

	urls := make([]sessionURLs, len(w.sessions))
	for i, ls := range w.sessions {
		urls[i] = urlsFor(d.base, ls)
	}
	run.results = make([][]result, len(w.clients))
	clients := make([]*http.Client, len(w.clients))
	for i := range clients {
		clients[i] = newClient()
		defer closeClient(clients[i])
		run.results[i] = make([]result, len(w.clients[i]))
	}

	// phase runs ops [from(i), to(i)) of every client concurrently and
	// returns when all have finished.
	phase := func(from, to func(i int) int) {
		var wg sync.WaitGroup
		for ci := range w.clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				ops := w.clients[ci]
				for j := from(ci); j < to(ci); j++ {
					m, u := urls[ops[j].sess].forOp(ops[j].kind)
					run.results[ci][j] = do(clients[ci], m, u, ops[j].body)
				}
			}(ci)
		}
		wg.Wait()
	}

	t0 := time.Now()
	phase(func(int) int { return 0 }, func(i int) int { return w.warm[i] })
	run.warmWall = time.Since(t0)
	if err := run.barrier(bin, w); err != nil {
		return nil, err
	}
	for s := 0; s < segments; s++ {
		cpu0, err0 := procCPU(d.pid())
		t0 := time.Now()
		phase(func(i int) int { return w.segBound(i, s) }, func(i int) int { return w.segBound(i, s+1) })
		seg := segment{wall: time.Since(t0)}
		cpu1, err1 := procCPU(d.pid())
		switch {
		case err0 == nil && err1 == nil:
			seg.cpu = cpu1 - cpu0
		case d.alive():
			return nil, fmt.Errorf("reading cqad's CPU time: %v", errors.Join(err0, err1))
		}
		// A daemon that died fails the remaining ops; verification counts
		// them and the run reports correct=false.
		for ci := range w.clients {
			for j := w.segBound(ci, s); j < w.segBound(ci, s+1); j++ {
				seg.lats = append(seg.lats, ms(run.results[ci][j].lat))
			}
		}
		run.segs = append(run.segs, seg)
		if err := run.barrier(bin, w); err != nil {
			return nil, err
		}
	}
	if rss, err := peakRSSMB(strconv.Itoa(d.pid())); err == nil {
		run.rssMB = rss
	}
	run.exited = !d.alive()
	return run, nil
}

// barrier runs while every client is paused and no request is in flight:
// the host reference kernel, and a throwaway set-up of a fresh daemon that
// is stopped again. setup_s is the median of the kept daemon's set-up and
// these, so its samples are spread over the whole run instead of sharing
// one moment of host speed.
func (run *liveRun) barrier(bin string, w *liveWorkload) error {
	run.refMS = append(run.refMS, refBarrier())
	d, el, _, err := setupLive(bin, w)
	if err != nil {
		return err
	}
	d.stop()
	run.setups = append(run.setups, el)
	return nil
}
