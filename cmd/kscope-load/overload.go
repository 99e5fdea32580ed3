package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/testbed"
)

// Overload-scenario tuning: a deliberately tiny admission base K (so the
// fleet saturates it), a hair-trigger breaker, and a short cooldown so the
// outage→recovery cycle fits a smoke run.
const (
	overloadQueueWait = 25 * time.Millisecond
	overloadThreshold = 3
	overloadCooldown  = 150 * time.Millisecond
	overloadProbes    = 2
	overloadMinRetry  = 60
	maxWorkerWait     = 20 * time.Millisecond
	monitorTimeout    = 30 * time.Second
	p99Bound          = 5.0 // seconds, per route — "bounded", not "fast"
)

func overloadK(cfg config) int { return max(cfg.concurrency/4, 1) }

// overloadTopology is one node on a fault-injectable disk behind a guard
// the crowd is sized to saturate.
func overloadTopology(cfg config) (testbed.Topology, error) {
	if cfg.workers < 12 {
		return testbed.Topology{}, fmt.Errorf("overload scenario needs at least 12 workers (got %d)", cfg.workers)
	}
	k := overloadK(cfg)
	return testbed.Topology{Store: testbed.FaultDir, Guard: &guard.Config{
		MaxInflight: k,
		// Pin the read class to K too (instead of the serving default 4K)
		// and give it no queue: the page-fetch stream is the high-volume
		// traffic, so this is what actually makes admission shed under a
		// 4K-concurrent fleet.
		Inflight:         map[guard.Class]int{guard.ClassRead: k},
		Queue:            map[guard.Class]int{guard.ClassRead: 0},
		QueueWait:        overloadQueueWait,
		BreakerThreshold: overloadThreshold,
		BreakerCooldown:  overloadCooldown,
		BreakerProbes:    overloadProbes,
	}}, nil
}

// overloadDrive is the guard acceptance: the fleet runs at 4x the
// admission base K, mid-run the store's filesystem starts failing every WAL
// append until the circuit breaker opens, a monitor then proves degraded
// mode (reads with X-Kscope-Degraded: 1, guard metrics exported) and
// heals the disk. Its own gates: the stampede shed and recovered, the
// breaker tripped and closed again, p99 stayed bounded.
func overloadDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	k, url := overloadK(cfg), bed.URLs[0]
	g := bed.Node(0).Serving().Guard

	// The stampede: the moment a test is posted, the whole crowd fetches it
	// at once. With all K read slots occupied by slow in-flight readers
	// (held directly, since cache-hit handlers finish too fast to pile up
	// on their own), a volley of 16K concurrent reads must shed entirely
	// with 429 + Retry-After, and reads must flow again once the slow
	// readers finish.
	infoURL := url + "/api/tests/" + testID
	var held []func()
	for i := 0; i < k; i++ {
		release, admitted := g.Admit(nil, guard.ClassRead)
		if !admitted {
			return nil, fmt.Errorf("could not occupy read slot %d/%d", i+1, k)
		}
		held = append(held, release)
	}
	served, shed := stampede(bed.Client, infoURL, 16*k)
	for _, release := range held {
		release()
	}
	if served != 0 || shed != int64(16*k) {
		return nil, fmt.Errorf("stampede of %d reads against a saturated K=%d: %d served, %d shed — admission control did not engage",
			16*k, k, served, shed)
	}
	if err := expectGet(bed.Client, infoURL, http.StatusOK, ""); err != nil {
		return nil, fmt.Errorf("read after saturation cleared: %w", err)
	}

	fmt.Fprintf(out, "crowd: %d workers, fleet concurrency %d vs admission K=%d\n", cfg.workers, 4*k, k)
	monitorDone := make(chan error, 1)
	_, err := bed.Drive([]testbed.Crowd{{
		Test: testID, Workers: cfg.workers, Trusted: cfg.trusted,
		// 4K workers in flight against an upload class admitting K: the
		// admission limiter, not goroutine supply, is the bottleneck.
		Concurrency: 4 * k,
		// The outage window spans many client retries; the budget must
		// outlast breaker cooldown plus recovery probing.
		Policy: failover.Policy{Retries: max(cfg.retries, overloadMinRetry), MaxRetryAfter: maxWorkerWait},
	}}, cfg.workers/3, func() {
		// The disk "fills up": every WAL append fails from here on.
		bed.Disk.FailAppendsAfter(0, nil, false)
		bed.NoteFault("disk outage: every WAL append fails until the breaker has opened and degraded mode is proven")
		go func() { monitorDone <- degradedMonitor(bed.Client, url, g, bed.Disk) }()
	})
	if err != nil {
		return nil, err
	}
	var monErr error
	select {
	case monErr = <-monitorDone:
	case <-time.After(monitorTimeout):
		monErr = fmt.Errorf("degraded-mode monitor never finished")
	}

	return func() error {
		fmt.Fprintf(out, "guard: %d breaker trips, breaker now %v, %d degraded serves, sheds by class:",
			g.Breaker().Trips(), g.Breaker().State(), g.DegradedServes())
		for c := guard.Class(0); c < guard.NumClasses; c++ {
			fmt.Fprintf(out, " %s=%d", c, g.Shed(c))
		}
		fmt.Fprintln(out)
		if monErr != nil {
			return fmt.Errorf("degraded-mode check: %w", monErr)
		}
		if g.Breaker().Trips() < 1 {
			return fmt.Errorf("the injected store faults never tripped the breaker")
		}
		if st := g.Breaker().State(); st != guard.StateClosed {
			return fmt.Errorf("breaker did not recover by end of run (state %v)", st)
		}
		// "Bounded latency": even under overload, admission control must
		// keep served requests fast — queues are bounded, so p99 cannot
		// grow into the tens of seconds an unprotected server shows.
		return checkP99(bed, p99Bound*1000, "under overload",
			"GET /api/tests/{id}", "POST /api/tests/{id}/sessions", "GET /api/tests/{id}/results")
	}, nil
}

// checkP99 fails when a front-door route's p99 exceeds boundMillis.
func checkP99(bed *testbed.Bed, boundMillis float64, when string, routes ...string) error {
	for _, route := range routes {
		h := testbed.RouteLatency(bed.Front().Registry, route)
		if p99 := h.Quantile(0.99) * 1000; h.Count() > 0 && p99 > boundMillis {
			return fmt.Errorf("p99 gate: %s p99 %.1fms > %.1fms %s", route, p99, boundMillis, when)
		}
	}
	return nil
}

// stampede fires n concurrent GETs released by a single barrier and counts
// 200s vs 429 sheds. Any other status counts as neither, failing the
// caller's both-sides check.
func stampede(c *http.Client, url string, n int) (ok, shed int64) {
	var okN, shedN atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := c.Get(url)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				okN.Add(1)
			case http.StatusTooManyRequests:
				shedN.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	return okN.Load(), shedN.Load()
}

// degradedMonitor waits for the breaker to open, proves degraded serving
// end to end, then heals the filesystem so the run can recover.
func degradedMonitor(c *http.Client, baseURL string, g *guard.Guard, ffs *store.FaultFS) error {
	deadline := time.Now().Add(monitorTimeout / 2)
	for g.Breaker().State() != guard.StateOpen {
		if time.Now().After(deadline) {
			return fmt.Errorf("breaker never opened after the fault was armed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Reads answer from live memory, marked degraded.
	for _, path := range []string{"", "/results", "/results?quality=1", "/sessions"} {
		if err := expectGet(c, baseURL+"/api/tests/"+testID+path, http.StatusOK, "1"); err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
	}
	// Readiness flips, liveness does not.
	if err := expectGet(c, baseURL+"/readyz", http.StatusServiceUnavailable, ""); err != nil {
		return fmt.Errorf("readyz while open: %w", err)
	}
	if err := expectGet(c, baseURL+"/healthz", http.StatusOK, ""); err != nil {
		return fmt.Errorf("healthz while open: %w", err)
	}
	// The guard's state is visible on the metrics surface.
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{"kscope_guard_breaker_state 2", "kscope_guard_shed_total"} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("metrics missing %q while breaker open", want)
		}
	}
	ffs.Reset()
	return nil
}

// expectGet fetches url and checks the status plus (when degraded is
// non-empty) the X-Kscope-Degraded header value.
func expectGet(c *http.Client, url string, wantStatus int, degraded string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if degraded != "" && resp.Header.Get(server.DegradedHeader) != degraded {
		return fmt.Errorf("GET %s: %s = %q, want %q",
			url, server.DegradedHeader, resp.Header.Get(server.DegradedHeader), degraded)
	}
	return nil
}
