// Package campaign orchestrates multi-tenant test churn: M tests driven
// concurrently through their full lifecycle — create → Prepare
// (overlapping other tenants' serving traffic) → serve under one shared
// crowd with mid-session worker abandonment and re-recruitment → conclude
// against a differential oracle → delete. Single-test soaks exercise
// steady-state serving; this package exercises what EYEORG-scale
// deployments actually experience: many experimenters creating, running,
// and tearing down tests at once, with worker churn in the middle.
//
// A campaign drives its tenants through a testbed.Bed, on any topology the
// bed can take: the bed prepares each tenant on every shard, reads its
// results and audits it, while all participant traffic — page downloads,
// session uploads — and the deletes flow through the bed's front door,
// per-session chaos links included.
package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// Spec describes one tenant's test.
type Spec struct {
	Test *params.Test
	// Sites supplies the webpage content Prepare integrates. Tenants that
	// share page content (same generated sites) should dedup through the
	// CAS blob layer; the report measures how much.
	Sites map[string]*webgen.Site
	// Controls are extra control pairs passed through to Prepare.
	Controls []aggregator.ControlPair
	// Sessions is how many acked session uploads the serve phase must land
	// before the tenant concludes.
	Sessions int
	// Answer decides every comparison for this tenant's workers.
	Answer extension.AnswerFunc
}

// TenantReport is the per-test lifecycle outcome.
type TenantReport struct {
	TestID string
	Pages  int
	// Acked lists worker ids whose uploads the server acknowledged (201,
	// or 409 = stored by an earlier attempt). Each is also acknowledged to
	// the bed, whose per-test audit finds every one on its owning shard's
	// store: acked work is never lost.
	Acked []string
	// Partials counts acked sessions that were abandoned mid-session after
	// at least one completed page (quality control drops them; raw results
	// keep them).
	Partials int
	// Vanished counts workers who walked away before completing anything:
	// no upload, worker lost to the platform, a replacement recruited.
	Vanished int
	// Recruited counts replacement workers minted for this tenant's slots.
	Recruited int
	// DedupBytes is how many blob bytes this tenant's Prepare did not have
	// to store thanks to content-addressed dedup (within the test and
	// against content other live tenants already stored).
	DedupBytes int64
	// PreparedDuringServe reports that another tenant was serving traffic
	// while this tenant's Prepare ran — the interference window the p99
	// gate watches.
	PreparedDuringServe bool
	// DeleteOverlappedServing reports that at least one other tenant was
	// still serving when this tenant was deleted mid-campaign.
	DeleteOverlappedServing bool
	Deleted                 bool
	PrepareElapsed          time.Duration
	ServeElapsed            time.Duration
	// Concluded reports the server's sequential engine decided this
	// tenant's test before its fixed session target was met; Decision is
	// the terminal decision the results endpoint carried.
	Concluded bool
	Decision  *earlystop.Decision
	// SessionsSaved counts required slots the decision made unnecessary:
	// sessions the tenant would have paid for under the fixed-n design but
	// never ran (or ran and had acknowledged unstored).
	SessionsSaved int
	// FixedCost is the fixed-horizon budget (spec.Sessions); RealizedCost
	// is what the tenant actually spent — stored sessions only. Early
	// stopping is worthwhile exactly when realized < fixed.
	FixedCost    int
	RealizedCost int
	Err          error
}

// Report aggregates a campaign run.
type Report struct {
	Tenants        []TenantReport
	TotalAcked     int
	TotalPartials  int
	TotalVanished  int
	TotalRecruited int
	// DedupBytesSaved is the campaign-wide growth of the blob store's
	// BytesSaved counter: bytes tenants shared instead of re-storing.
	DedupBytesSaved int64
	// UniqueBlobsBefore/After bracket the campaign for the leak check:
	// after every tenant is deleted, the blob store must be back to its
	// pre-campaign population.
	UniqueBlobsBefore int64
	UniqueBlobsAfter  int64
	// ArchetypeCounts tallies the initial population plus every recruited
	// replacement.
	ArchetypeCounts map[crowd.Archetype]int
	// TotalFixedCost/TotalRealizedCost/TotalSessionsSaved aggregate the
	// early-stopping economics across tenants: what the fixed-n design
	// would have paid, what was actually stored, and the difference the
	// sequential engine released back to the campaign.
	TotalFixedCost     int
	TotalRealizedCost  int
	TotalSessionsSaved int
	// BudgetUnspent is what remains of the shared Budget after the run
	// (zero when no budget was set).
	BudgetUnspent int
	Elapsed       time.Duration
}

// Campaign drives a set of tenant specs through their full lifecycle.
//
// A tenant honors the bed's sequential early stopping when its topology
// runs the engine: a concluded upload (200 + X-Kscope-Concluded) ends the
// tenant's serve phase, its remaining workers go back to the shared pool,
// and its unspent budget stays available to undecided neighbors. Without
// the engine a concluded upload is reported as an error.
type Campaign struct {
	// Bed is the running deployment: it prepares every tenant, carries its
	// traffic, and audits it before it is deleted. Its run seed makes
	// per-session RNG streams and recruitment deterministic up to
	// scheduling.
	Bed   *testbed.Bed
	Specs []Spec
	// Pop is the shared worker pool every tenant recruits from. Workers
	// who finish a session return to the pool; workers who vanish do not.
	Pop *crowd.Population
	// Mix draws replacement workers when the pool runs dry or a worker
	// vanishes mid-campaign.
	Mix     crowd.Mix
	Trusted bool
	// Concurrency bounds simultaneously running sessions campaign-wide
	// (default 4).
	Concurrency int
	// Budget, when positive, caps campaign-wide paid sessions: each slot
	// draws one unit before running and only stored sessions keep it —
	// concluded, abandoned, and failed attempts refund theirs. Decided
	// tenants stop drawing, so their unspent quota is exactly what
	// neighbors still serving get to spend. Exhausting the budget fails
	// the run: the campaign promised more sessions than it could pay for.
	Budget int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	pool       *workerPool
	serving    atomic.Int32
	session    atomic.Int64
	budgetMu   sync.Mutex
	budgetLeft int
}

// maxSlotAttempts bounds the vanish-and-replace loop of one required
// session.
const maxSlotAttempts = 8

// workerPool is the shared crowd: idle workers check out for one session
// and return on completion; vanished workers are replaced by freshly
// recruited ones, keeping the platform's supply up under churn.
type workerPool struct {
	mu        sync.Mutex
	idle      []*crowd.Worker
	nextID    int
	rng       *rand.Rand
	mix       crowd.Mix
	trusted   bool
	recruited int
	counts    map[crowd.Archetype]int
}

// checkout hands out an idle worker not yet used by the requesting tenant;
// when none qualifies, or when fresh asks for a replacement of a vanished
// worker, it recruits one, as a platform does when a task's assignment
// outstrips the available crowd.
func (p *workerPool) checkout(used map[string]bool, fresh bool) (*crowd.Worker, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.idle {
		if !used[w.ID] && !fresh {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return w, false, nil
		}
	}
	w, err := crowd.RecruitWorker(p.nextID, p.mix, p.trusted, p.rng)
	if err != nil {
		return nil, false, err
	}
	p.nextID++
	p.recruited++
	p.counts[w.Archetype]++
	return w, true, nil
}

// release returns a worker to the pool.
func (p *workerPool) release(w *crowd.Worker) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// Run drives every tenant through its lifecycle and blocks until all have
// finished. Tenant starts are staggered in a wave: tenant i+1 begins its
// Prepare the moment tenant i starts serving, so every Prepare after the
// first runs while at least one neighbor serves traffic — the interference
// the campaign exists to measure. The returned report is never nil when
// setup succeeds; per-tenant failures are collected into both the report
// and the joined error.
func (c *Campaign) Run() (*Report, error) {
	if c.Bed == nil {
		return nil, errors.New("campaign: needs a bed")
	}
	if len(c.Specs) == 0 {
		return nil, errors.New("campaign: no tenant specs")
	}
	if c.Pop == nil || len(c.Pop.Workers) == 0 {
		return nil, errors.New("campaign: needs a worker population")
	}
	for i, spec := range c.Specs {
		if spec.Test == nil || spec.Answer == nil || spec.Sessions <= 0 {
			return nil, fmt.Errorf("campaign: spec %d needs a test, an answer function, and a positive session target", i)
		}
	}

	c.budgetLeft = c.Budget
	c.pool = &workerPool{
		idle:    append([]*crowd.Worker(nil), c.Pop.Workers...),
		nextID:  len(c.Pop.Workers),
		rng:     rand.New(rand.NewSource(c.Bed.Run.Seed ^ 0x5ca1ab1e)),
		mix:     c.Mix,
		trusted: c.Trusted,
		counts:  make(map[crowd.Archetype]int),
	}

	statsBefore := c.Bed.Blobs.Stats()
	report := &Report{
		Tenants:           make([]TenantReport, len(c.Specs)),
		UniqueBlobsBefore: statsBefore.UniqueBlobs,
		ArchetypeCounts:   c.Pop.CountByArchetype(),
	}

	concurrency := c.Concurrency
	if concurrency <= 0 {
		concurrency = 4
	}
	sem := make(chan struct{}, concurrency)

	// The wave: gates[i] opens tenant i's lifecycle; tenant i opens
	// gates[i+1] when it starts serving (or aborts).
	gates := make([]chan struct{}, len(c.Specs)+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[0])

	start := time.Now()
	var wg sync.WaitGroup
	for i := range c.Specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gates[i]
			var openOnce sync.Once
			openNext := func() { openOnce.Do(func() { close(gates[i+1]) }) }
			defer openNext()
			c.runTenant(i, sem, openNext, &report.Tenants[i])
		}(i)
	}
	wg.Wait()

	statsAfter := c.Bed.Blobs.Stats()
	report.DedupBytesSaved = statsAfter.BytesSaved - statsBefore.BytesSaved
	report.UniqueBlobsAfter = statsAfter.UniqueBlobs
	report.Elapsed = time.Since(start)

	c.pool.mu.Lock()
	report.TotalRecruited = c.pool.recruited
	for a, n := range c.pool.counts {
		report.ArchetypeCounts[a] += n
	}
	c.pool.mu.Unlock()

	if c.Budget > 0 {
		c.budgetMu.Lock()
		report.BudgetUnspent = c.budgetLeft
		c.budgetMu.Unlock()
	}

	var errs []error
	for i := range report.Tenants {
		t := &report.Tenants[i]
		report.TotalAcked += len(t.Acked)
		report.TotalPartials += t.Partials
		report.TotalVanished += t.Vanished
		report.TotalFixedCost += t.FixedCost
		report.TotalRealizedCost += t.RealizedCost
		report.TotalSessionsSaved += t.SessionsSaved
		if t.Err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", t.TestID, t.Err))
		}
	}
	return report, errors.Join(errs...)
}

// runTenant walks one test through create → prepare → serve → conclude →
// delete, filling rep as it goes. openNext releases the next tenant's
// lifecycle; it is called as serving starts so the neighbor's Prepare
// overlaps this tenant's traffic.
func (c *Campaign) runTenant(i int, sem chan struct{}, openNext func(), rep *TenantReport) {
	spec := c.Specs[i]
	rep.TestID = spec.Test.TestID

	// Prepare (create): runs while earlier tenants serve.
	rep.PreparedDuringServe = c.serving.Load() > 0
	blobsBefore := c.Bed.Blobs.Stats().BytesSaved
	prepStart := time.Now()
	prep, err := c.Bed.Prepare(spec.Test, spec.Sites, spec.Controls)
	rep.PrepareElapsed = time.Since(prepStart)
	rep.DedupBytes = c.Bed.Blobs.Stats().BytesSaved - blobsBefore
	if err != nil {
		rep.Err = fmt.Errorf("prepare: %w", err)
		return
	}
	rep.Pages = len(prep.Pages)
	rep.PreparedDuringServe = rep.PreparedDuringServe || c.serving.Load() > 0
	c.logf("tenant %s: prepared %d pages in %v (dedup %d bytes, during-serve=%v)",
		rep.TestID, rep.Pages, rep.PrepareElapsed.Round(time.Millisecond), rep.DedupBytes, rep.PreparedDuringServe)

	// Serve: recruit workers from the shared pool until the session target
	// is acked, replacing vanished workers as churn eats them.
	c.serving.Add(1)
	openNext()
	serveStart := time.Now()
	err = c.serveTenant(spec, prep, sem, rep)
	rep.ServeElapsed = time.Since(serveStart)
	c.serving.Add(-1)
	rep.FixedCost = spec.Sessions
	rep.RealizedCost = len(rep.Acked)
	if err != nil {
		rep.Err = err
		return
	}
	c.logf("tenant %s: served %d acked sessions in %v (partial %d, vanished %d, concluded=%v saved=%d)",
		rep.TestID, len(rep.Acked), rep.ServeElapsed.Round(time.Millisecond), rep.Partials, rep.Vanished, rep.Concluded, rep.SessionsSaved)

	// Conclude: the bed's per-test audit — every acked upload is in its
	// owning shard's store (no acked loss), and the served results equal
	// the from-scratch oracle (no cross-tenant interference).
	if err := c.concludeTenant(rep); err != nil {
		rep.Err = err
		return
	}

	// Delete: tear the test down — mid-campaign when neighbors still
	// serve — and verify nothing of it remains servable.
	rep.DeleteOverlappedServing = c.serving.Load() > 0
	if err := c.deleteTenant(rep); err != nil {
		rep.Err = err
		return
	}
	rep.Deleted = true
	c.logf("tenant %s: concluded and deleted (overlapped-serving=%v)", rep.TestID, rep.DeleteOverlappedServing)
}

// serveTenant lands spec.Sessions acked uploads, one goroutine per required
// slot, all throttled by the campaign-wide semaphore. With early stopping,
// a slot that observes the test concluded — its own upload answered 200 +
// X-Kscope-Concluded, or a sibling's before it started — retires without
// spending: the worker returns to the shared pool and the slot's budget
// unit (if any) is refunded for undecided neighbors.
func (c *Campaign) serveTenant(spec Spec, prep *aggregator.Prepared, sem chan struct{}, rep *TenantReport) error {
	stopOnDecision := c.Bed.Top.EarlyStopAlpha > 0
	var mu sync.Mutex
	used := make(map[string]bool)
	concluded := false
	var firstErr error
	var wg sync.WaitGroup
	for slot := 0; slot < spec.Sessions; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for attempt := 0; attempt < maxSlotAttempts; attempt++ {
				mu.Lock()
				if concluded {
					rep.SessionsSaved++
					mu.Unlock()
					return
				}
				usedView := make(map[string]bool, len(used))
				for id := range used {
					usedView[id] = true
				}
				mu.Unlock()
				w, minted, err := c.pool.checkout(usedView, false)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("slot %d: recruiting: %w", slot, err)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				used[w.ID] = true
				if minted {
					rep.Recruited++
				}
				mu.Unlock()

				// Reserve the paid-session unit only once the slot holds a
				// concurrency token: outstanding reservations are bounded by
				// the campaign concurrency, not by the number of waiting
				// slots, so a decided neighbor's refunds actually reach us.
				sem <- struct{}{}
				if !c.acquireBudget() {
					<-sem
					c.pool.release(w)
					mu.Lock()
					if concluded {
						rep.SessionsSaved++
					} else if firstErr == nil {
						firstErr = fmt.Errorf("slot %d: campaign budget exhausted (%d units)", slot, c.Budget)
					}
					mu.Unlock()
					return
				}
				// Session k of the campaign is participant k of crowd 0.
				a := c.Bed.Participate(spec.Test.TestID, 0, int(c.session.Add(1)), w, spec.Answer, failover.Policy{}, nil)
				<-sem

				switch {
				case a.Err == nil && a.Outcome == extension.UploadConcluded:
					// The sequential engine decided the test before this
					// session landed: acknowledged, unstored, unpaid.
					c.refundBudget()
					c.pool.release(w)
					mu.Lock()
					if stopOnDecision {
						concluded = true
						rep.Concluded = true
						rep.SessionsSaved++
					} else if firstErr == nil {
						firstErr = fmt.Errorf("slot %d: test concluded early on a bed without early stopping", slot)
					}
					mu.Unlock()
					return
				case a.Err == nil:
					c.pool.release(w)
					mu.Lock()
					rep.Acked = append(rep.Acked, w.ID)
					if len(a.Session.Behaviors) < len(prep.Pages) {
						rep.Partials++
					}
					mu.Unlock()
					return
				case errors.Is(a.Err, extension.ErrAbandoned):
					// The worker walked away with nothing uploaded: lost to
					// the platform (not returned to the pool) and replaced in
					// it by a fresh recruit. Nothing was stored, so nothing
					// was paid.
					c.refundBudget()
					fresh, _, err := c.pool.checkout(nil, true)
					mu.Lock()
					rep.Vanished++
					if err == nil {
						c.pool.release(fresh)
						rep.Recruited++
					} else if firstErr == nil {
						firstErr = fmt.Errorf("slot %d: recruiting: %w", slot, err)
					}
					mu.Unlock()
				default:
					// Infrastructure failure after the client's own retry
					// budget: the worker is fine, the attempt was not.
					c.refundBudget()
					c.pool.release(w)
					mu.Lock()
					if firstErr == nil && attempt == maxSlotAttempts-1 {
						firstErr = fmt.Errorf("slot %d: %w", slot, a.Err)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("slot %d: no acked session after %d attempts", slot, maxSlotAttempts)
			}
			mu.Unlock()
		}(slot)
	}
	wg.Wait()
	return firstErr
}

// acquireBudget draws one paid-session unit from the shared campaign
// budget; a false return means the pool is dry. A no-op true when no
// budget was configured.
func (c *Campaign) acquireBudget() bool {
	if c.Budget <= 0 {
		return true
	}
	c.budgetMu.Lock()
	defer c.budgetMu.Unlock()
	if c.budgetLeft <= 0 {
		return false
	}
	c.budgetLeft--
	return true
}

// refundBudget returns a drawn unit that was never spent on a stored
// session — concluded, abandoned, or failed attempts.
func (c *Campaign) refundBudget() {
	if c.Budget <= 0 {
		return
	}
	c.budgetMu.Lock()
	c.budgetLeft++
	c.budgetMu.Unlock()
}

// concludeTenant holds the tenant to the bed's per-test audit and then
// checks the sequential engine's decision the served results carry, which
// the oracle knows nothing of.
func (c *Campaign) concludeTenant(rep *TenantReport) error {
	_, res, err := c.Bed.AuditTest(rep.TestID)
	if err != nil {
		return fmt.Errorf("conclude: %w", err)
	}
	if res.Concluded != (res.Decision != nil) {
		return fmt.Errorf("conclude: inconsistent decision metadata (concluded=%v, decision=%+v)", res.Concluded, res.Decision)
	}
	if rep.Concluded && res.Decision == nil {
		return errors.New("conclude: serve phase observed a concluded upload but results carry no decision")
	}
	if d := res.Decision; d != nil {
		if err := auditDecision(d); err != nil {
			return fmt.Errorf("conclude: %w", err)
		}
		rep.Concluded, rep.Decision = true, d
	}
	return nil
}

// auditDecision sanity-checks a results-borne sequential decision: a real
// winner, a certifiable p-value bound, and accounting that could actually
// have produced it.
func auditDecision(d *earlystop.Decision) error {
	if d.Winner != questionnaire.ChoiceLeft && d.Winner != questionnaire.ChoiceRight {
		return fmt.Errorf("decision winner %q is not a side", d.Winner)
	}
	if d.PageID == "" || d.QuestionID == "" {
		return fmt.Errorf("decision names no evidence stream: %+v", d)
	}
	if !(d.PValueBound > 0 && d.PValueBound <= 1) {
		return fmt.Errorf("decision p-value bound %v out of (0, 1]", d.PValueBound)
	}
	if d.NUsed <= 0 || d.Sessions < d.NUsed || d.Streams <= 0 {
		return fmt.Errorf("decision accounting impossible: %+v", d)
	}
	return nil
}

// deleteTenant removes the test through the front door, over the
// experimenter's clean link, and verifies the deployment genuinely forgot
// it: its info and its results must 404 afterwards.
func (c *Campaign) deleteTenant(rep *TenantReport) error {
	client, err := extension.NewClient(c.Bed.URLs[0], c.Bed.Client,
		extension.WithFailover(c.Bed.URLs[1:]...), extension.WithPolicy(c.Bed.WorkerPolicy()))
	if err != nil {
		return err
	}
	if err := client.DeleteTest(rep.TestID); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	_, infoErr := client.TestInfo(rep.TestID)
	_, resultsErr := client.Results(rep.TestID, false)
	for i, err := range []error{infoErr, resultsErr} {
		var status *failover.StatusError
		if !errors.As(err, &status) || status.Status != http.StatusNotFound {
			return fmt.Errorf("post-delete %s probe: %v, want 404 — deleted test still servable", []string{"info", "results"}[i], err)
		}
	}
	return nil
}

func (c *Campaign) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
