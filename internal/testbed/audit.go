package testbed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
)

// acked records that the deployment acknowledged workerID's session of
// testID as stored, to a client that had seen replication epoch `epoch`
// (0: none advertised). The bed's experimenter learns the epoch before the
// acknowledgement is counted — a reader who holds k acks holds their
// epochs too — and every Run.PollEvery-th one of the run polls its test's
// /results.
func (b *Bed) acked(testID, workerID string, epoch uint64) {
	if epoch > 0 {
		b.reader.Ring.Observe(http.Header{server.EpochHeader: {strconv.FormatUint(epoch, 10)}})
	}
	b.mu.Lock()
	b.acks[testID] = append(b.acks[testID], workerID)
	b.ackCount++
	n := b.ackCount
	b.mu.Unlock()
	if b.Run.PollEvery > 0 && n%b.Run.PollEvery == 0 {
		b.poll(testID)
	}
}

// get reads path through the front door the way an experimenter's client
// does: over the clean Client (it probes the deployment, not the chaos), with
// the shared retry, rotation and stale-epoch rules.
func (b *Bed) get(path string) (*failover.Response, error) {
	return b.reader.Do(context.Background(), func(node int) (*failover.Response, error) {
		resp, err := b.Client.Get(b.URLs[node] + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return &failover.Response{Status: resp.StatusCode, Header: resp.Header, Body: body}, nil
	}, func(r *failover.Response) failover.Verdict {
		if r.Status == http.StatusOK {
			return failover.Done
		}
		return failover.ByStatus(r.Status)
	})
}

// results fetches a test's served results, and reports whether the answer
// is marked partial (a shard's share missing) and whether it is marked
// degraded (a node refusing writes).
func (b *Bed) results(testID string, useQC bool) (res *server.Results, partial, degraded bool, err error) {
	path := "/api/tests/" + testID + "/results"
	if useQC {
		path += "?quality=1"
	}
	resp, err := b.get(path)
	if err != nil {
		return nil, false, false, fmt.Errorf("results of %s (quality=%v): %w", testID, useQC, err)
	}
	res = new(server.Results)
	if err := json.Unmarshal(resp.Body, res); err != nil {
		return nil, false, false, fmt.Errorf("decoding results of %s: %w", testID, err)
	}
	return res, resp.Header.Get(shard.PartialHeader) != "", resp.Header.Get(server.DegradedHeader) != "", nil
}

// poll is the mid-run experimenter. Read-your-acks: a full answer (200, not
// partial; a degraded one is as current) to a request that began after k
// sessions of the test were acknowledged counts at least k workers, raw.
// The quality-controlled view is fetched too, for the load and for the
// status matrix; what it drops is the oracle's business.
func (b *Bed) poll(testID string) {
	for _, useQC := range []bool{false, true} {
		b.mu.Lock()
		k := len(b.acks[testID])
		b.polls++
		b.mu.Unlock()
		res, partial, _, err := b.results(testID, useQC)
		b.mu.Lock()
		switch {
		case err != nil:
			b.pollErrs = append(b.pollErrs, fmt.Errorf("mid-run poll: %w", err))
		case useQC || partial:
		case res.Workers < k:
			b.pollErrs = append(b.pollErrs, fmt.Errorf("READ-YOUR-ACKS: %d sessions of %s were acknowledged before a /results request began, its full answer counts %d workers",
				k, testID, res.Workers))
		default:
			b.checked++
		}
		b.mu.Unlock()
	}
}

// oracle recomputes a test's results from scratch on a fresh single node
// holding the union of every shard's stored sessions of it, read from each
// shard's current store.
func (b *Bed) oracle(testID string, useQC bool) (*server.Results, error) {
	union := store.OpenMemory()
	defer union.Close()
	copyInto := func(name string, docs ...store.Document) error {
		for _, doc := range docs {
			if _, err := union.Collection(name).InsertUnique(doc); err != nil {
				return fmt.Errorf("oracle: copying %s/%s: %w", name, doc.ID(), err)
			}
		}
		return nil
	}
	for i, db := range b.Stores() {
		if i == 0 { // prepared documents are the same on every shard
			test, err := db.Collection(aggregator.TestsCollection).Get(testID)
			if err == nil {
				err = copyInto(aggregator.TestsCollection, test)
			}
			if err == nil {
				err = copyInto(aggregator.PagesCollection, db.Collection(aggregator.PagesCollection).FindEq("test_id", testID)...)
			}
			if err != nil {
				return nil, fmt.Errorf("oracle: test %s: %w", testID, err)
			}
		}
		// A session two shards both hold fails here: ownership is a partition.
		if err := copyInto(aggregator.ResponsesCollection, db.Collection(aggregator.ResponsesCollection).FindEq("test_id", testID)...); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	srv, err := server.New(union, b.Blobs)
	if err != nil {
		return nil, err
	}
	return srv.ConcludeScratch(testID, useQC)
}

// Audit is the standard verdict on a finished run, the same on every
// topology. extraStatuses widens the status matrix for a scenario whose
// own probes legitimately draw more (404 after a delete).
func (b *Bed) Audit(out io.Writer, extraStatuses ...int) error {
	b.mu.Lock()
	crowds, pollErrs := b.crowds, b.pollErrs
	b.mu.Unlock()

	// No participant lost: every worker's session landed somewhere.
	for _, c := range crowds {
		if r := c.report; r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d workers failed to complete (%d ring-exhausted): %v",
				c.Test, r.Failed, c.Workers, r.RingExhausted, r.errs())
		}
	}
	if len(pollErrs) > 0 {
		return errors.Join(pollErrs...)
	}

	// The status matrix the front door may answer: success, the
	// idempotent duplicate a retried upload draws, and — on a topology
	// that sheds (a guard, a standby, a router) — 429/503, every one of
	// them with Retry-After.
	allowed := append([]int{http.StatusOK, http.StatusCreated, http.StatusConflict}, extraStatuses...)
	if b.Top.Guard != nil || b.Top.Replicated || b.Top.Shards > 0 {
		allowed = append(allowed, http.StatusTooManyRequests, http.StatusServiceUnavailable)
	}
	bad, bare := b.statuses.outside(allowed)
	if len(bad) > 0 {
		return fmt.Errorf("front door answered statuses outside %v: %v", allowed, bad)
	}
	if bare > 0 {
		return fmt.Errorf("%d shed responses (429/503) lacked Retry-After", bare)
	}

	// The per-test gates, on every fixture.
	served := make([]*server.Results, len(b.Fixtures))
	acked := 0
	for i, f := range b.Fixtures {
		var err error
		if _, served[i], err = b.AuditTest(f.Test.TestID); err != nil {
			return err
		}
		acked += len(b.ackedWorkers(f.Test.TestID))
	}
	if len(b.Fixtures) > 0 {
		fmt.Fprintf(out, "acked-loss audit: all %d acknowledged sessions present on their owning shard's current store\n", acked)
	}

	// Every deposed primary is provably fenced. Probe pushes an empty
	// frame batch at the promoted standby: the stale epoch must be
	// rejected, and the primary must record its own deposition.
	for i, p := range b.shards {
		if p.epoch == 0 {
			continue
		}
		zombie := p.primary.Primary
		// The probe rides the shard's chaos link; one the link dropped
		// or faulted proves nothing either way and is sent again.
		err := zombie.Probe()
		for try := 0; try < b.Run.Retries && err != nil && !errors.Is(err, replica.ErrStaleEpoch); try++ {
			err = zombie.Probe()
		}
		if !errors.Is(err, replica.ErrStaleEpoch) {
			return fmt.Errorf("shard %d: deposed primary's probe returned %v, want ErrStaleEpoch", i, err)
		}
		if !zombie.Fenced() {
			return fmt.Errorf("shard %d: deposed primary does not report itself fenced after the stale-epoch rejection", i)
		}
		if p.standby.Registry.Counter("kscope_repl_stale_rejects").Value() == 0 {
			return fmt.Errorf("shard %d: promoted standby recorded no stale-epoch rejects; the fencing path never fired", i)
		}
		fmt.Fprintf(out, "fencing: shard %d zombie (epoch %d) rejected with ErrStaleEpoch by epoch %d and fenced\n", i, zombie.Epoch(), p.epoch)
	}

	for i, f := range b.Fixtures {
		fmt.Fprintf(out, "oracle: %s incremental == from-scratch (raw + quality) over %d store(s); %d kept / %d dropped\n",
			f.Test.TestID, len(b.shards), served[i].Workers, served[i].DroppedWorkers)
	}
	return nil
}

// AuditTest holds one test to the audit's per-test gates. Zero acked loss:
// every session of it acknowledged to the bed is in the CURRENT store of
// the shard the ring routes it to — after a promotion that is the
// standby's store, not the zombie's. And what the front door serves — a
// node's incremental fold, a router's merge — equals the from-scratch
// oracle, raw and quality-controlled, in full: nothing partial or degraded
// once the run has recovered. It returns the served results it checked,
// raw and quality-controlled, the sequential engine's decision included.
func (b *Bed) AuditTest(testID string) (raw, qc *server.Results, err error) {
	stores := b.Stores()
	for _, workerID := range b.ackedWorkers(testID) {
		owner := 0
		if b.router != nil {
			owner = b.router.Router.Ring().Owner(shard.SessionKey(testID, workerID))
		}
		if _, err := stores[owner].Collection(aggregator.ResponsesCollection).Get(testID + "/" + workerID); err != nil {
			return nil, nil, fmt.Errorf("ACKED LOSS: %s worker %s was acknowledged but is absent from owning shard %d: %w",
				testID, workerID, owner, err)
		}
	}
	var served [2]*server.Results
	for i, useQC := range []bool{false, true} {
		got, partial, degraded, err := b.results(testID, useQC)
		if err != nil {
			return nil, nil, err
		}
		if partial || degraded {
			return nil, nil, fmt.Errorf("results of %s (quality=%v) still marked partial or degraded after full recovery", testID, useQC)
		}
		served[i] = got
		// The oracle knows nothing of the sequential engine; a decided
		// test's tallies must still agree exactly.
		tallies := *got
		tallies.Concluded, tallies.Decision = false, nil
		want, err := b.oracle(testID, useQC)
		if err != nil {
			return nil, nil, err
		}
		if !reflect.DeepEqual(&tallies, want) {
			return nil, nil, fmt.Errorf("ORACLE DIVERGENCE %s (quality=%v):\nserved %+v\noracle %+v", testID, useQC, &tallies, want)
		}
	}
	return served[0], served[1], nil
}

func (b *Bed) ackedWorkers(testID string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.acks[testID]...)
}

// Report prints what the run did: each crowd's outcome, the polls, the
// chaos every link injected, each pair's replication stream, the router,
// the fault schedule, the front door's latencies and its status counts.
func (b *Bed) Report(out io.Writer) {
	b.mu.Lock()
	crowds, faults, polls, checked := b.crowds, b.faults, b.polls, b.checked
	var chaos netsim.ChaosStats
	for _, t := range b.links {
		s := t.Stats()
		chaos.Drops, chaos.Faults, chaos.Passed = chaos.Drops+s.Drops, chaos.Faults+s.Faults, chaos.Passed+s.Passed
	}
	links := len(b.links)
	b.mu.Unlock()

	for _, c := range crowds {
		label := "sessions"
		if len(crowds) > 1 {
			label += " " + c.Test
		}
		r := c.report
		fmt.Fprintf(out, "%s: %d completed, %d failed (%d ring-exhausted), %d client retries; %.1f sessions/s over %s\n",
			label, r.Completed, r.Failed, r.RingExhausted, r.Retries,
			float64(r.Completed)/r.Elapsed.Seconds(), r.Elapsed.Round(time.Millisecond))
	}
	if polls > 0 {
		fmt.Fprintf(out, "results polls: %d, %d of them full answers held to read-your-acks\n", polls, checked)
	}
	if links > 0 {
		fmt.Fprintf(out, "chaos: %d drops, %d injected faults, %d passed over %d links\n", chaos.Drops, chaos.Faults, chaos.Passed, links)
	}
	for i, p := range b.shards {
		if p.standby == nil {
			continue
		}
		preg, sreg := p.primary.Registry, p.standby.Registry
		fmt.Fprintf(out, "replication shard %d: %d frames shipped, %d snapshots, %d send errors; standby applied %d frames, %d stale rejects, %d failovers\n", i,
			preg.Counter("kscope_repl_frames_shipped").Value(), preg.Counter("kscope_repl_snapshots_sent").Value(),
			preg.Counter("kscope_repl_send_errors_total").Value(), sreg.Counter("kscope_repl_frames_applied").Value(),
			sreg.Counter("kscope_repl_stale_rejects").Value(), sreg.Counter("kscope_repl_failovers_total").Value())
	}
	reg := b.Front().Registry
	if b.router != nil {
		fmt.Fprintf(out, "router: %d proxy retries, %d node failovers, %d partial results, %d segments exhausted\n",
			reg.Counter("kscope_shard_proxy_retries_total").Value(), reg.Counter("kscope_shard_failovers_total").Value(),
			reg.Counter("kscope_shard_partial_results_total").Value(), reg.Counter("kscope_shard_exhausted_total").Value())
	}
	for _, f := range faults {
		fmt.Fprintf(out, "fault: %s\n", f)
	}
	fmt.Fprintf(out, "%-32s %8s %9s %9s %9s\n", "route", "count", "p50", "p90", "p99")
	for _, route := range []string{
		"GET /api/tests/{id}",
		"GET /api/tests/{id}/pages",
		"POST /api/tests/{id}/sessions",
		"POST /api/tests/{id}/sessions:batch",
		"GET /api/tests/{id}/results",
	} {
		if h := RouteLatency(reg, route); h.Count() > 0 {
			fmt.Fprintf(out, "%-32s %8d %8.1fms %8.1fms %8.1fms\n",
				route, h.Count(), h.Quantile(0.5)*1000, h.Quantile(0.9)*1000, h.Quantile(0.99)*1000)
		}
	}
	b.statuses.print(out)
}

// RouteLatency is the request-duration histogram obs.Middleware keeps for
// one route label.
func RouteLatency(reg *obs.Registry, route string) *obs.Histogram {
	return reg.Histogram(obs.MetricRequestDuration, obs.DefLatencyBuckets, "route", route)
}

// statusTable counts responses by status code at a front-door listener,
// behind any chaos injection — these are statuses the deployment itself
// produced. It also audits the shed contract: every 429/503 must carry
// Retry-After.
type statusTable struct {
	mu            sync.Mutex
	counts        map[int]int64
	noRetryAfters int64
}

func (s *statusTable) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.mu.Lock()
		if s.counts == nil {
			s.counts = make(map[int]int64)
		}
		s.counts[rec.status]++
		if (rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable) &&
			rec.Header().Get("Retry-After") == "" {
			s.noRetryAfters++
		}
		s.mu.Unlock()
	})
}

func (s *statusTable) sorted() (codes []int) {
	for c := range s.counts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	return codes
}

func (s *statusTable) print(out io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(out, "server statuses:")
	for _, c := range s.sorted() {
		fmt.Fprintf(out, " %d×%d", c, s.counts[c])
	}
	fmt.Fprintln(out)
}

// outside lists the counted statuses not in allowed, as "code×count", and
// counts the sheds that carried no Retry-After.
func (s *statusTable) outside(allowed []int) (bad []string, bareSheds int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, code := range s.sorted() {
		if !slices.Contains(allowed, code) {
			bad = append(bad, fmt.Sprintf("%d×%d", code, s.counts[code]))
		}
	}
	return bad, s.noRetryAfters
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
