package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/server"
)

// Crowd is one test's simulated participants, run through the full
// extension flow against the front door. Drive draws Workers of them from
// the open (or Trusted) mix; RunCrowd takes its workers as given.
type Crowd struct {
	Test        string
	Workers     int
	Trusted     bool // the trusted crowd mix instead of the open one
	Concurrency int
	Batch       int             // >0: ship gzip batches of this size
	Policy      failover.Policy // zero fields keep the run's worker policy
}

// Attempt is what one participant's run of the flow came to: the session
// it built (nil when the flow failed), how its upload ended, the client's
// retries, and the error that ended it early — extension.ErrAbandoned for
// a worker who vanished before completing a page.
type Attempt struct {
	Worker  *crowd.Worker
	Session *server.SessionUpload
	Outcome extension.UploadOutcome
	Retries int64
	Err     error
}

// CrowdReport tallies a crowd's attempts.
type CrowdReport struct {
	Attempts  []Attempt // in participant order
	Completed int
	Failed    int
	// Abandoned counts workers who vanished without uploading anything.
	// Churn is a crowd behaviour, not an infrastructure failure, so it is
	// tallied apart from Failed.
	Abandoned int
	// Concluded counts sessions acknowledged unstored because the test was
	// already decided (early stopping).
	Concluded int
	// RingExhausted counts the Failed that died with
	// failover.ErrRingExhausted — every base URL of their ring refused or
	// never answered — telling deployment-wide unavailability apart from
	// per-worker trouble.
	RingExhausted int
	Retries       int64
	Elapsed       time.Duration
}

func (r *CrowdReport) add(a Attempt) {
	switch {
	case errors.Is(a.Err, extension.ErrAbandoned):
		r.Abandoned++
	case a.Err != nil:
		r.Failed++
		if errors.Is(a.Err, failover.ErrRingExhausted) {
			r.RingExhausted++
		}
	case a.Outcome == extension.UploadConcluded:
		r.Concluded++
	default:
		r.Completed++
	}
	r.Retries += a.Retries
}

// errs is the first few failures, for diagnostics.
func (r *CrowdReport) errs() []error {
	var errs []error
	for _, a := range r.Attempts {
		if a.Err != nil && !errors.Is(a.Err, extension.ErrAbandoned) && len(errs) < 5 {
			errs = append(errs, a.Err)
		}
	}
	return errs
}

// Participate runs worker w once through the extension flow on test, as
// participant n of crowd c: its client reaches the front door over worker
// link (c, n) with the failover ring and policy (zero fields keep
// WorkerPolicy), and one extension.Runner answers with answer, drawing from
// rng — nil draws from the participant's own stream, Seed + c·59 999 +
// n·1 000 003. A session the front door stored (201) or already held (409)
// is acknowledged to the bed; one a decided test acknowledged unstored is
// not.
func (b *Bed) Participate(test string, c, n int, w *crowd.Worker, answer extension.AnswerFunc, policy failover.Policy, rng *rand.Rand) Attempt {
	runner := b.runner(c, n, w, answer, policy, rng)
	a := Attempt{Worker: w}
	a.Session, a.Outcome, a.Err = runner.Run(test)
	a.Retries = runner.Client.RetryAttempts()
	b.settle(test, &a, runner.Client.Epoch())
	return a
}

// runner is participant n of crowd c's extension.Runner.
func (b *Bed) runner(c, n int, w *crowd.Worker, answer extension.AnswerFunc, policy failover.Policy, rng *rand.Rand) *extension.Runner {
	if rng == nil {
		rng = rand.New(rand.NewSource(b.Run.Seed + int64(c)*59_999 + int64(n)*1_000_003))
	}
	return &extension.Runner{Client: b.client(c, n, w.ID, policy), Worker: w, Answer: answer, RNG: rng}
}

// client reaches the front door over worker link (c, n), identified to the
// rate limiter as workerID. NewClient refuses only an empty base URL, which
// a started bed never has.
func (b *Bed) client(c, n int, workerID string, policy failover.Policy) *extension.Client {
	httpc := &http.Client{Timeout: 30 * time.Second, Transport: b.link(workerLink, c, n)}
	client, _ := extension.NewClient(b.URLs[0], httpc, extension.WithWorkerID(workerID),
		extension.WithFailover(b.URLs[1:]...), extension.WithPolicy(policy.Or(b.WorkerPolicy())))
	return client
}

// settle is the one ack rule: a finished upload the front door stored, or
// already held, is acknowledged to the bed with the epoch its client had
// seen. A failed attempt wears its worker's name.
func (b *Bed) settle(test string, a *Attempt, epoch uint64) {
	if a.Err != nil {
		a.Session, a.Err = nil, fmt.Errorf("testbed: worker %s: %w", a.Worker.ID, a.Err)
		return
	}
	if a.Outcome != extension.UploadConcluded {
		b.acked(test, a.Worker.ID, epoch)
	}
}

// RunCrowd runs workers[n] as participant n of crowd c on cr.Test, at most
// cr.Concurrency at a time (default 4; at 1 in participant order),
// answering with answer and drawing from rngs[n] (nil rngs: each
// participant's own stream). With cr.Batch > 0 participants only build
// their sessions, and a batcher on worker link (c, −1) ships them. done,
// when set, is called as each attempt settles.
func (b *Bed) RunCrowd(c int, cr Crowd, workers []*crowd.Worker, rngs []*rand.Rand, answer extension.AnswerFunc, done func()) *CrowdReport {
	rep := &CrowdReport{Attempts: make([]Attempt, len(workers))}
	var mu sync.Mutex
	settled := func(n int, a Attempt) {
		mu.Lock()
		rep.Attempts[n] = a
		rep.add(a)
		mu.Unlock()
		if done != nil {
			done()
		}
	}
	var batch *batcher
	if cr.Batch > 0 {
		batch = &batcher{bed: b, client: b.client(c, -1, "", cr.Policy), test: cr.Test, size: cr.Batch, settled: settled}
	}
	concurrency := cr.Concurrency
	if concurrency <= 0 {
		concurrency = 4
	}
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(concurrency, len(workers)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				var rng *rand.Rand
				if rngs != nil {
					rng = rngs[n]
				}
				if batch == nil {
					settled(n, b.Participate(cr.Test, c, n, workers[n], answer, cr.Policy, rng))
					continue
				}
				runner := b.runner(c, n, workers[n], answer, cr.Policy, rng)
				a := Attempt{Worker: workers[n]}
				a.Session, a.Err = runner.Build(cr.Test)
				a.Retries = runner.Client.RetryAttempts()
				if a.Err != nil {
					b.settle(cr.Test, &a, 0)
					settled(n, a)
					continue
				}
				// Built but not yet shipped: the batcher settles the
				// attempt once its batch's upload does.
				batch.add(n, a)
			}
		}()
	}
	for n := range workers {
		next <- n
	}
	close(next)
	wg.Wait()
	if batch != nil {
		batch.flush()
		rep.Retries += batch.client.RetryAttempts()
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// batcher ships built sessions in gzip batches of a fixed size through one
// shared client. The participant that fills a batch uploads it; the others
// keep building, so uploads overlap the remaining flow work.
type batcher struct {
	bed     *Bed
	client  *extension.Client
	test    string
	size    int
	settled func(n int, a Attempt)

	mu      sync.Mutex
	pending []built
}

// built is participant n's attempt, its session not yet shipped.
type built struct {
	n int
	a Attempt
}

// add queues one built session; a full batch is uploaded by the caller.
func (bt *batcher) add(n int, a Attempt) {
	bt.mu.Lock()
	bt.pending = append(bt.pending, built{n, a})
	var full []built
	if len(bt.pending) >= bt.size {
		full, bt.pending = bt.pending, nil
	}
	bt.mu.Unlock()
	if full != nil {
		bt.upload(full)
	}
}

// flush ships whatever remains once every participant has built.
func (bt *batcher) flush() {
	bt.mu.Lock()
	rest := bt.pending
	bt.pending = nil
	bt.mu.Unlock()
	if len(rest) > 0 {
		bt.upload(rest)
	}
}

// upload ships one batch and settles every element under the one ack rule:
// an element stored (201) or already held (409) is acknowledged; a batch
// answered concluded is acknowledged work that was not stored.
func (bt *batcher) upload(batch []built) {
	sessions := make([]server.SessionUpload, len(batch))
	for i, b := range batch {
		sessions[i] = *b.a.Session
	}
	report, err := bt.client.UploadBatch(bt.test, sessions, true)
	for i, b := range batch {
		a := b.a
		switch {
		case err != nil:
			a.Err = fmt.Errorf("batch upload: %w", err)
		case report.Concluded:
			a.Outcome = extension.UploadConcluded
		case report.Results[i].Status == http.StatusConflict:
			a.Outcome = extension.UploadDuplicate
		case report.Results[i].Status != http.StatusCreated:
			a.Err = fmt.Errorf("batch element rejected: status %d: %s", report.Results[i].Status, report.Results[i].Error)
		}
		bt.bed.settle(bt.test, &a, bt.client.Epoch())
		bt.settled(b.n, a)
	}
}

type crowdRun struct {
	Crowd
	report *CrowdReport
}

// Drive runs the crowds concurrently, each with RunCrowd, and waits for all
// of them. Every population is drawn before any crowd starts, so a crowd
// that cannot be drawn fails the drive before any traffic. fault, when
// set, fires once, as soon as `at` workers of all crowds together have
// finished — mid-run, from a worker's goroutine, with traffic still in
// flight. The reports come back in the crowds' order.
func (b *Bed) Drive(crowds []Crowd, at int, fault func()) ([]*CrowdReport, error) {
	pops := make([]*crowd.Population, len(crowds))
	for ci, c := range crowds {
		popFn := crowd.OpenCrowd
		if c.Trusted {
			popFn = crowd.TrustedCrowd
		}
		var err error
		if pops[ci], err = popFn(c.Workers, rand.New(rand.NewSource(b.Run.Seed+int64(ci)))); err != nil {
			return nil, err
		}
	}
	var finished atomic.Int64
	var once sync.Once
	done := func() {
		if fault != nil && finished.Add(1) >= int64(max(at, 1)) {
			once.Do(fault)
		}
	}
	runs := make([]crowdRun, len(crowds))
	var wg sync.WaitGroup
	for ci, c := range crowds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[ci] = crowdRun{Crowd: c, report: b.RunCrowd(ci, c, pops[ci].Workers, nil, extension.AnswerFontSize(), done)}
		}()
	}
	wg.Wait()
	b.mu.Lock()
	b.crowds = append(b.crowds, runs...)
	b.mu.Unlock()
	reports := make([]*CrowdReport, len(runs))
	for i, r := range runs {
		reports[i] = r.report
	}
	return reports, nil
}
