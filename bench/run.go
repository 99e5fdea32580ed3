package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// partResult is one timed part (flow or batch) of one round.
type partResult struct {
	sessions int
	testers  int
	elapsed  time.Duration
	wire     int64              // socket bytes, both ways, all testers; reference traffic excluded
	lat      [nRoutes][]float64 // ms, sorted, all testers
	ref      []float64          // ms per reference session, sorted, all testers
	refTime  time.Duration      // spent in reference requests, summed over testers
	cost     processCost
}

// processCost is what the whole process (testers and every tier) spent
// during a part.
type processCost struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

func readCost() processCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return processCost{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (c processCost) since(before processCost) processCost {
	return processCost{
		cpu:        c.cpu - before.cpu,
		mallocs:    c.mallocs - before.mallocs,
		allocBytes: c.allocBytes - before.allocBytes,
		gcPause:    c.gcPause - before.gcPause,
	}
}

// runPart runs work once per tester, each on its own goroutine, and
// gathers what the part cost. withCost also reads the process counters
// (ReadMemStats stops the world, so the end-to-end pass leaves it out).
func runPart(cs []*tester, sessions int, withCost bool, work func(g int, c *tester)) partResult {
	for _, c := range cs {
		c.resetPart()
	}
	res := partResult{sessions: sessions, testers: len(cs)}
	var before processCost
	if withCost {
		before = readCost()
	}
	wireBefore := int64(0)
	for _, c := range cs {
		wireBefore += c.wire.total()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *tester) {
			defer wg.Done()
			work(g, c)
		}(g, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if withCost {
		res.cost = readCost().since(before)
	}
	for _, c := range cs {
		res.wire += c.wire.total()
		for r := range c.lat {
			res.lat[r] = append(res.lat[r], c.lat[r]...)
		}
		res.ref = append(res.ref, c.refLat...)
		res.refTime += c.refTime
	}
	res.wire -= wireBefore
	for r := range res.lat {
		sort.Float64s(res.lat[r])
	}
	sort.Float64s(res.ref)
	return res
}

// flowPart replays the tester flow over fresh tests: tester g takes the
// sessions with idx % len(cs) == g of every test, in test order. A tester
// that has a reference runs one reference session after every refEvery-th
// of its sessions, so the reference sees the host the sessions saw.
func flowPart(cs []*tester, tests []*scriptTest, withCost bool) partResult {
	return runPart(cs, len(tests)*sessionsPerTest, withCost, func(g int, c *tester) {
		played := 0
		for _, t := range tests {
			for idx := g; idx < sessionsPerTest; idx += len(cs) {
				c.flowSession(t, idx, len(cs))
				if played++; c.refAddr != "" && played%refEvery == 0 {
					c.refSession()
				}
			}
		}
	})
}

// batchPart uploads fresh tests' crowds as gzip batches: tester g takes
// every len(cs)-th test, and runs one reference session after each.
func batchPart(cs []*tester, tests []*scriptTest, withCost bool) partResult {
	return runPart(cs, len(tests)*sessionsPerTest, withCost, func(g int, c *tester) {
		for i := g; i < len(tests); i += len(cs) {
			c.batchTest(tests[i])
			if c.refAddr != "" {
				c.refSession()
			}
		}
	})
}

// warmUp runs the warm-up test's crowd through the flow, so connections
// are open and every lazily built piece of the serving path exists before
// round 1.
//
// It ends with sync(2): provisioning (and deleting an earlier set-up)
// leaves thousands of dirty directory entries behind, and on a journalled
// filesystem the first fsyncs of the timed part would otherwise commit
// them and be charged for the set-up's writes.
func warmUp(cs []*tester, sc *script) {
	flowPart(cs, []*scriptTest{sc.Warm}, false)
	syscall.Sync()
}

// own is the part's wall time less the testers' share spent in reference
// requests: what the script itself took.
func (p partResult) own() time.Duration {
	return p.elapsed - p.refTime/time.Duration(p.testers)
}

// sessionMs is the wall time one tester spent per session of the part.
func (p partResult) sessionMs() float64 {
	return float64(p.own()) / 1e6 * float64(p.testers) / float64(p.sessions)
}

// roundValues are one round's values: every wall-clock one and, when the
// testers took a reference, the end-to-end timings as multiples of the
// median reference session of the same part (NaN otherwise).
func roundValues(flow, batch partResult) map[string]float64 {
	flowRef, batchRef := percentile(flow.ref, 0.50), percentile(batch.ref, 0.50)
	return map[string]float64{
		"flow_session_xref":      flow.sessionMs() / flowRef,
		"batch_session_xref":     batch.sessionMs() / batchRef,
		"page_fetch_p50_xref":    percentile(flow.lat[routePage], 0.50) / flowRef,
		"upload_p50_xref":        percentile(flow.lat[routeUpload], 0.50) / flowRef,
		"batch_p50_xref":         percentile(batch.lat[routeBatch], 0.50) / batchRef,
		"results_raw_p50_xref":   percentile(flow.lat[routeResultsRaw], 0.50) / flowRef,
		"results_qc_p50_xref":    percentile(flow.lat[routeResultsQC], 0.50) / flowRef,
		"wire_bytes_per_session": float64(flow.wire) / float64(flow.sessions),

		"ref_session_ms":       flowRef,
		"sessions_per_s":       float64(flow.sessions) / flow.own().Seconds(),
		"batch_sessions_per_s": float64(batch.sessions) / batch.own().Seconds(),
		"page_fetch_p50_ms":    percentile(flow.lat[routePage], 0.50),
		"page_fetch_p99_ms":    percentile(flow.lat[routePage], 0.99),
		"upload_p50_ms":        percentile(flow.lat[routeUpload], 0.50),
		"upload_p99_ms":        percentile(flow.lat[routeUpload], 0.99),
		"batch_p50_ms":         percentile(batch.lat[routeBatch], 0.50),
		"batch_p90_ms":         percentile(batch.lat[routeBatch], 0.90),
		"results_raw_p50_ms":   percentile(flow.lat[routeResultsRaw], 0.50),
		"results_qc_p50_ms":    percentile(flow.lat[routeResultsQC], 0.50),
		"results_qc_p90_ms":    percentile(flow.lat[routeResultsQC], 0.90),
	}
}

// roundSamples are the per-round sample counts behind roundValues.
func roundSamples(flow, batch partResult) map[string]int {
	return map[string]int{
		"page":        len(flow.lat[routePage]),
		"upload":      len(flow.lat[routeUpload]),
		"batch":       len(batch.lat[routeBatch]),
		"results_raw": len(flow.lat[routeResultsRaw]),
		"results_qc":  len(flow.lat[routeResultsQC]),
		"ref":         len(flow.ref),
		"ref_batch":   len(batch.ref),
	}
}

// passResult is one end-to-end pass over the whole script.
type passResult struct {
	values    map[string]float64 // median over rounds, plus heap_bytes_per_session
	refMs     []float64          // the flow part's median reference session, round by round
	samples   map[string]int     // per round
	attempted int
	failed    int
	firstErr  error
	acked     map[string]int
	elapsed   time.Duration // timed parts only
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure replays the whole script, round by round, over an already warm
// topology and reduces every end-to-end metric to its median over rounds.
func measure(cs []*tester, sc *script) passResult {
	perRound := map[string][]float64{}
	res := passResult{acked: map[string]int{}}
	stored := 0
	heapBefore := heapAlloc()
	for _, r := range sc.Rounds {
		flow := flowPart(cs, r.Flow, false)
		batch := batchPart(cs, r.Batch, false)
		rv := roundValues(flow, batch)
		for name, v := range rv {
			perRound[name] = append(perRound[name], v)
		}
		res.samples = roundSamples(flow, batch)
		res.elapsed += flow.elapsed + batch.elapsed
		stored += flow.sessions + batch.sessions
	}
	heapAfter := heapAlloc()
	res.values = map[string]float64{
		"heap_bytes_per_session": (float64(heapAfter) - float64(heapBefore)) / float64(stored),
	}
	for name, vs := range perRound {
		res.values[name] = median(vs)
	}
	res.refMs = perRound["ref_session_ms"]
	res.collect(cs)
	return res
}

// collect folds the testers' request accounting into the pass.
func (res *passResult) collect(cs []*tester) {
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		for id, n := range c.acked {
			res.acked[id] += n
		}
	}
}

func (res *passResult) failure() error {
	if res.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d requests failed; first: %w", res.failed, res.attempted, res.firstErr)
}
