// Package core is Kaleidoscope's orchestration layer — the public API a
// downstream experimenter uses. A Study bundles the test parameters, the
// webpage versions, the perception model for simulated participants, and
// the crowdsourcing configuration; RunStudy drives the paper's full
// pipeline end-to-end:
//
//	aggregate -> post task -> recruit -> run extension flows over HTTP ->
//	collect sessions -> conclude raw and quality-controlled results.
//
// Every stage uses the real component: pages are inlined and stored, the
// core server serves them over its HTTP API, and each simulated
// participant runs the browser-extension flow against that API.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// Study is one Kaleidoscope experiment, fully specified.
type Study struct {
	// Params is the Table I test-parameter document.
	Params *params.Test
	// Sites maps each webpage's WebPath to its saved-webpage folder.
	Sites map[string]*webgen.Site
	// Controls are extra known-answer control pairs (an identical-pair
	// control is always added by the aggregator).
	Controls []aggregator.ControlPair
	// Answer is the perception model simulated participants use.
	Answer extension.AnswerFunc
	// Pool is the worker population recruitment draws from.
	Pool *crowd.Population
	// MeanInterarrival overrides the platform's recruitment speed
	// (zero = paper-calibrated default of ~7.2 min/worker).
	MeanInterarrival time.Duration
	// PaymentUSD is the per-worker reward (default $0.10).
	PaymentUSD float64
	// TrustedOnly restricts recruitment to trusted workers.
	TrustedOnly bool
	// Target restricts recruitment to matching demographics (nil = any) —
	// the paper's "target demographics" input.
	Target *crowd.Targeting
	// Sorted enables the paper's §III-D optimization: participants run a
	// comparison sort instead of the full C(N,2) round-robin, visiting
	// only the integrated pages the sort needs. Requires exactly one
	// question.
	Sorted bool
	// Concurrency runs up to this many participant sessions in parallel
	// (0 or 1 = sequential). Participants on a crowdsourcing platform are
	// naturally concurrent; each parallel session gets its own random
	// stream seeded deterministically from the study RNG, so results stay
	// reproducible for a given concurrency setting.
	Concurrency int
	// PrepareWorkers bounds the aggregator's preparation pool (0 =
	// GOMAXPROCS). Preparation output is deterministic regardless of the
	// pool size, so this only trades setup latency for CPU.
	PrepareWorkers int
	// QC overrides the quality-control config (nil = default derived from
	// the test shape).
	QC *quality.Config
}

// Validate checks the study is runnable.
func (s *Study) Validate() error {
	if s.Params == nil {
		return errors.New("core: study missing params")
	}
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(s.Sites) == 0 {
		return errors.New("core: study has no sites")
	}
	if s.Answer == nil {
		return errors.New("core: study missing answer model")
	}
	if s.Pool == nil {
		return errors.New("core: study missing worker pool")
	}
	if s.Sorted && len(s.Params.Questions) != 1 {
		return errors.New("core: sorted studies require exactly one question")
	}
	return nil
}

// Outcome is a completed study.
type Outcome struct {
	Prepared    *aggregator.Prepared
	Recruitment *crowd.RecruitmentResult
	Sessions    []server.SessionUpload
	// SortedResults holds per-worker rankings when the study ran in
	// sorted mode (nil otherwise).
	SortedResults []*extension.SortedResult
	// Raw holds unfiltered results; Filtered holds quality-controlled
	// results.
	Raw      *server.Results
	Filtered *server.Results
}

// Engine owns the storage and server a set of studies runs against.
type Engine struct {
	DB     *store.DB
	Blobs  *store.BlobStore
	Server *server.Server
	// Metrics, when set, receives the aggregator's preparation metrics
	// (pass the same registry to server.WithObservability to get one
	// exposition covering both paths).
	Metrics *obs.Registry
}

// NewEngine builds an in-memory engine.
func NewEngine() (*Engine, error) {
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	srv, err := server.New(db, blobs)
	if err != nil {
		return nil, err
	}
	return &Engine{DB: db, Blobs: blobs, Server: srv}, nil
}

// Client returns an extension client wired to the engine's server over a
// netsim.Link, so studies run hermetically, with no socket.
func (e *Engine) Client() (*extension.Client, error) {
	link := &netsim.Link{}
	return extension.NewClient(link.Serve("kaleidoscope.internal", e.Server), &http.Client{Transport: link})
}

// RunStudy executes the full pipeline and returns the outcome.
func (e *Engine) RunStudy(study *Study, rng *rand.Rand) (*Outcome, error) {
	if err := study.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("core: nil random source")
	}

	// Stage 1: aggregate. Preparation fans out over the study's worker
	// pool; its output is deterministic for any pool size.
	aggOpts := []aggregator.Option{aggregator.WithWorkers(study.PrepareWorkers)}
	if e.Metrics != nil {
		aggOpts = append(aggOpts, aggregator.WithObservability(e.Metrics))
	}
	agg, err := aggregator.New(e.DB, e.Blobs, aggOpts...)
	if err != nil {
		return nil, err
	}
	prep, err := agg.Prepare(study.Params, study.Sites, study.Controls)
	if err != nil {
		return nil, err
	}

	// Stage 2: post the task to the crowdsourcing platform and recruit.
	payment := study.PaymentUSD
	if payment == 0 {
		payment = 0.10
	}
	platform, err := crowd.NewPlatform(study.Pool, study.MeanInterarrival)
	if err != nil {
		return nil, err
	}
	job := crowd.Job{
		TestID:          study.Params.TestID,
		Title:           "Kaleidoscope test " + study.Params.TestID,
		Instructions:    study.Params.TestDescription,
		RequiredWorkers: study.Params.ParticipantNum,
		PaymentUSD:      payment,
		TrustedOnly:     study.TrustedOnly,
		Target:          study.Target,
	}
	recruitment, err := platform.Post(job, rng)
	if err != nil {
		return nil, err
	}

	// Stage 3: each recruited participant runs the extension flow against
	// the live server API.
	client, err := e.Client()
	if err != nil {
		return nil, err
	}
	outcome := &Outcome{Prepared: prep, Recruitment: recruitment}
	if study.Concurrency > 1 {
		if err := e.runSessionsConcurrent(study, client, recruitment, rng, outcome); err != nil {
			return nil, err
		}
	} else {
		for _, rec := range recruitment.Recruits {
			if err := e.runOneSession(study, client, rec.Worker, rng, outcome, -1); err != nil {
				return nil, err
			}
		}
	}

	if err := e.concludeOutcome(study, prep, outcome); err != nil {
		return nil, err
	}
	return outcome, nil
}

// runOneSession executes one participant's flow and stores the result into
// the outcome. A slot >= 0 writes into the pre-sized slices (concurrent
// mode); slot -1 appends (sequential mode).
func (e *Engine) runOneSession(study *Study, client *extension.Client, worker *crowd.Worker, rng *rand.Rand, outcome *Outcome, slot int) error {
	if study.Sorted {
		runner := &extension.SortedRunner{
			Client: client,
			Worker: worker,
			Answer: study.Answer,
			RNG:    rng,
		}
		res, err := runner.Run(study.Params.TestID)
		if err != nil {
			return fmt.Errorf("core: worker %s: %w", worker.ID, err)
		}
		if slot >= 0 {
			outcome.Sessions[slot] = *res.Session
			outcome.SortedResults[slot] = res
		} else {
			outcome.Sessions = append(outcome.Sessions, *res.Session)
			outcome.SortedResults = append(outcome.SortedResults, res)
		}
		return nil
	}
	runner := &extension.Runner{
		Client: client,
		Worker: worker,
		Answer: study.Answer,
		RNG:    rng,
	}
	session, err := runner.Run(study.Params.TestID)
	if err != nil {
		return fmt.Errorf("core: worker %s: %w", worker.ID, err)
	}
	if slot >= 0 {
		outcome.Sessions[slot] = *session
	} else {
		outcome.Sessions = append(outcome.Sessions, *session)
	}
	return nil
}

// runSessionsConcurrent fans participant sessions out over a bounded
// worker pool. Per-session RNG seeds are drawn from the study RNG before
// launch, keeping runs reproducible.
func (e *Engine) runSessionsConcurrent(study *Study, client *extension.Client, recruitment *crowd.RecruitmentResult, rng *rand.Rand, outcome *Outcome) error {
	n := len(recruitment.Recruits)
	outcome.Sessions = make([]server.SessionUpload, n)
	if study.Sorted {
		outcome.SortedResults = make([]*extension.SortedResult, n)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	sem := make(chan struct{}, study.Concurrency)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, rec := range recruitment.Recruits {
		wg.Add(1)
		go func(slot int, worker *crowd.Worker, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			err := e.runOneSession(study, client, worker, rand.New(rand.NewSource(seed)), outcome, slot)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i, rec.Worker, seeds[i])
	}
	wg.Wait()
	return firstErr
}

// concludeOutcome computes the raw and quality-controlled results.
func (e *Engine) concludeOutcome(study *Study, prep *aggregator.Prepared, outcome *Outcome) error {
	var err error
	outcome.Raw, err = e.Server.Conclude(study.Params.TestID, nil)
	if err != nil {
		return err
	}
	qc := study.QC
	if qc == nil {
		cfg := quality.DefaultConfig(len(prep.RealPages()) * len(study.Params.Questions))
		if study.Sorted {
			// Sorted sessions legitimately answer fewer, variable numbers
			// of questions; completeness is not a hard rule for them.
			cfg.RequiredResponses = 0
		}
		qc = &cfg
	}
	outcome.Filtered, err = e.Server.Conclude(study.Params.TestID, qc)
	return err
}
