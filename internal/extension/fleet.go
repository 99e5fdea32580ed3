package extension

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/server"
)

// Fleet drives a whole crowd of simulated participants through the full
// extension flow (download, replay, answer, upload) against one live core
// server — the reusable session-runner behind cmd/kscope-load and the soak
// tests. Each worker runs the exact Runner flow a single participant runs;
// the fleet only adds bounded concurrency, per-worker deterministic RNG
// streams, and per-worker transports (so chaos injection composes).
type Fleet struct {
	// BaseURL is the core server's address (e.g. a httptest.Server URL).
	BaseURL string
	// FailoverURLs lists standby addresses each worker's client may rotate
	// to when BaseURL stops answering or turns out to be a fenced, deposed
	// primary. Order matters: clients walk the ring BaseURL → FailoverURLs.
	FailoverURLs []string
	// Context, when set, cancels in-flight requests and retry waits for
	// every worker client — the fleet-wide shutdown switch.
	Context context.Context
	// Answer decides every comparison (see the Answer* constructors).
	Answer AnswerFunc
	// Seed derives one independent RNG stream per worker (Seed + index),
	// making each worker's produced session deterministic regardless of
	// goroutine scheduling.
	Seed int64
	// Concurrency bounds simultaneously running workers (default 4).
	Concurrency int
	// Policy is each worker client's retry budget; zero fields keep the
	// client defaults. Load tests set MaxRetryAfter low so a shedding server
	// does not stretch the run by full wall-clock seconds.
	Policy failover.Policy
	// Transport, when set, supplies a per-worker http.RoundTripper —
	// typically a seeded netsim.ChaosTransport. Called once per worker.
	Transport func(workerIndex int) http.RoundTripper
	// Timeout is the per-worker overall HTTP client timeout (default 30s).
	Timeout time.Duration
	// Registry, when set, receives client retry metrics.
	Registry *obs.Registry
	// BatchSize, when positive, switches the fleet to batched uploads:
	// workers build their sessions (download, replay, answer) without
	// posting them, and a shared client ships gzip-compressed batches of
	// this size through the server's sessions:batch endpoint. Zero keeps one
	// POST per participant.
	BatchSize int
	// OnResult, when set, is called after each worker finishes (success or
	// failure) with the number of workers completed so far. It may be
	// called concurrently; load drivers use it to interleave results polls
	// with the upload stream.
	OnResult func(done int, res WorkerResult)
}

// WorkerResult is the outcome of one simulated participant.
type WorkerResult struct {
	Index    int
	WorkerID string
	Session  *server.SessionUpload // nil on failure
	Err      error
	Retries  int64
	Elapsed  time.Duration
	// Concluded marks a session the server acknowledged without storing
	// because the sequential engine had already decided the test.
	Concluded bool
	// Epoch is the highest replication epoch the uploading client had seen
	// when the session was acknowledged (0 when no node advertised one): the
	// token a reader needs to refuse a deposed primary's stale answer about
	// this very session.
	Epoch uint64
}

// FleetReport aggregates a fleet run.
type FleetReport struct {
	Completed int
	Failed    int
	// Abandoned counts workers who vanished without uploading anything
	// (ErrAbandoned). Worker churn is an expected crowd behaviour, not an
	// infrastructure failure, so it is tallied separately from Failed.
	Abandoned int
	// Concluded counts workers whose finished sessions were acknowledged
	// unstored because the test was already decided (early stopping).
	Concluded int
	// RingExhausted breaks out how many of the Failed workers died with
	// failover.ErrRingExhausted — every base URL in their failover ring
	// refused or never answered. Failed still includes them (the session did not
	// land), but a run report can tell deployment-wide unavailability
	// apart from per-worker trouble.
	RingExhausted int
	Retries       int64
	Elapsed       time.Duration
	// Errs holds the first few failures, for diagnostics.
	Errs []error
}

// workerSeedStride decorrelates per-worker RNG streams derived from one
// base seed.
const workerSeedStride = 1_000_003

// Run drives every worker of the population through testID and blocks
// until all have finished. The returned report is never nil; per-worker
// failures are collected, not fatal — the caller decides whether a failed
// session fails the run.
func (f *Fleet) Run(testID string, pop *crowd.Population) (*FleetReport, error) {
	if f.BaseURL == "" {
		return nil, errors.New("extension: fleet needs a base URL")
	}
	if f.Answer == nil {
		return nil, errors.New("extension: fleet needs an answer function")
	}
	if pop == nil || len(pop.Workers) == 0 {
		return nil, errors.New("extension: fleet needs workers")
	}
	concurrency := f.Concurrency
	if concurrency <= 0 {
		concurrency = 4
	}
	if concurrency > len(pop.Workers) {
		concurrency = len(pop.Workers)
	}

	report := &FleetReport{}
	var mu sync.Mutex
	record := func(res WorkerResult) {
		mu.Lock()
		switch {
		case errors.Is(res.Err, ErrAbandoned):
			report.Abandoned++
		case res.Err != nil:
			report.Failed++
			if errors.Is(res.Err, failover.ErrRingExhausted) {
				report.RingExhausted++
			}
			if len(report.Errs) < 5 {
				report.Errs = append(report.Errs, res.Err)
			}
		case res.Concluded:
			report.Concluded++
		default:
			report.Completed++
		}
		report.Retries += res.Retries
		done := report.Completed + report.Failed + report.Abandoned + report.Concluded
		mu.Unlock()
		if f.OnResult != nil {
			f.OnResult(done, res)
		}
	}

	var batcher *sessionBatcher
	if f.BatchSize > 0 {
		var err error
		if batcher, err = f.newBatcher(testID, record); err != nil {
			return nil, err
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	indices := make(chan int)

	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				res := f.runWorker(testID, i, pop.Workers[i], batcher != nil)
				if batcher != nil && res.Err == nil {
					// Built but not yet shipped: the batcher records the
					// result once its batch's upload settles.
					batcher.add(res)
					continue
				}
				record(res)
			}
		}()
	}
	for i := range pop.Workers {
		indices <- i
	}
	close(indices)
	wg.Wait()
	if batcher != nil {
		batcher.flush()
		mu.Lock()
		report.Retries += batcher.client.RetryAttempts()
		mu.Unlock()
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// sessionBatcher accumulates built sessions and ships them in fixed-size
// gzip-compressed batches through one shared upload client. The worker that
// fills a batch uploads it; the others keep building — uploads overlap the
// remaining flow work.
type sessionBatcher struct {
	client  *Client
	testID  string
	size    int
	record  func(WorkerResult)
	mu      sync.Mutex
	pending []WorkerResult
}

// newClient builds one participant's (or the batcher's) client from the
// fleet's knobs. transportSlot picks the per-worker transport; workerID is
// empty for the batcher, which is no single worker.
func (f *Fleet) newClient(transportSlot int, workerID string) (*Client, error) {
	httpc := &http.Client{Timeout: f.Timeout}
	if httpc.Timeout == 0 {
		httpc.Timeout = defaultTimeout
	}
	if f.Transport != nil {
		httpc.Transport = f.Transport(transportSlot)
	}
	return NewClient(f.BaseURL, httpc, WithWorkerID(workerID), WithPolicy(f.Policy),
		WithMetrics(f.Registry), WithFailover(f.FailoverURLs...), WithContext(f.Context))
}

// newBatcher builds the shared batch-upload client. The batcher gets the
// transport slot before the population (-1) so chaos injection stays
// per-connection.
func (f *Fleet) newBatcher(testID string, record func(WorkerResult)) (*sessionBatcher, error) {
	client, err := f.newClient(-1, "")
	if err != nil {
		return nil, err
	}
	return &sessionBatcher{client: client, testID: testID, size: f.BatchSize, record: record}, nil
}

// add queues one built session; a full batch is uploaded by the caller.
func (b *sessionBatcher) add(res WorkerResult) {
	b.mu.Lock()
	b.pending = append(b.pending, res)
	var batch []WorkerResult
	if len(b.pending) >= b.size {
		batch, b.pending = b.pending, nil
	}
	b.mu.Unlock()
	if batch != nil {
		b.upload(batch)
	}
}

// flush ships whatever remains; called after all workers finished building.
func (b *sessionBatcher) flush() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.upload(batch)
	}
}

// upload ships one batch and records every element's outcome. A 409 element
// is a success like it is on the single path: an earlier attempt (perhaps
// one whose response was lost) already stored the session.
func (b *sessionBatcher) upload(batch []WorkerResult) {
	sessions := make([]server.SessionUpload, len(batch))
	for i, res := range batch {
		sessions[i] = *res.Session
	}
	reportObj, err := b.client.UploadBatch(b.testID, sessions, true)
	for i := range batch {
		switch {
		case err != nil:
			batch[i].Err = fmt.Errorf("extension: batch upload (worker %s): %w", batch[i].WorkerID, err)
		case reportObj.Concluded:
			// The test was decided before this batch landed: every element
			// is acknowledged work that spent no budget.
			batch[i].Concluded = true
		case reportObj.Results[i].Status != http.StatusCreated && reportObj.Results[i].Status != http.StatusConflict:
			batch[i].Err = fmt.Errorf("extension: batch element %s rejected: status %d: %s",
				batch[i].WorkerID, reportObj.Results[i].Status, reportObj.Results[i].Error)
		}
		batch[i].Epoch = b.client.Epoch()
		b.record(batch[i])
	}
}

// runWorker executes one participant's flow; in buildOnly mode the session
// is returned unuploaded for the batcher to ship.
func (f *Fleet) runWorker(testID string, index int, worker *crowd.Worker, buildOnly bool) WorkerResult {
	res := WorkerResult{Index: index, WorkerID: worker.ID}
	start := time.Now()

	client, err := f.newClient(index, worker.ID)
	if err != nil {
		res.Err = err
		return res
	}
	runner := &Runner{
		Client: client,
		Worker: worker,
		Answer: f.Answer,
		RNG:    rand.New(rand.NewSource(f.Seed + int64(index)*workerSeedStride)),
	}
	var session *server.SessionUpload
	if buildOnly {
		session, err = runner.Build(testID)
	} else {
		var outcome UploadOutcome
		session, outcome, err = runner.RunOutcome(testID)
		res.Concluded = err == nil && outcome == UploadConcluded
	}
	res.Retries = client.RetryAttempts()
	res.Epoch = client.Epoch()
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = fmt.Errorf("extension: worker %s (index %d): %w", worker.ID, index, err)
		return res
	}
	res.Session = session
	return res
}
