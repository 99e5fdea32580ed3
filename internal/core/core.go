// Package core is Kaleidoscope's orchestration layer — the public API a
// downstream experimenter uses. A Study bundles the test parameters, the
// webpage versions, the perception model for simulated participants, and
// the crowdsourcing configuration; RunStudy drives the paper's full
// pipeline end-to-end on a running deployment:
//
//	aggregate -> post task -> recruit -> run extension flows over HTTP ->
//	collect sessions -> read the served raw and quality-controlled results.
//
// Every stage uses the real component: the deployment is a testbed.Bed —
// the same deploy.Open assembly kscope-server runs, as one node, a
// replicated pair or a sharded fleet — pages are inlined and stored on it,
// each simulated participant runs the browser-extension flow against its
// front door, and the results are what its /results endpoint serves, held
// to the bed's acked-loss and oracle gates. The same study gives the same
// Outcome on every topology.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// Study is one Kaleidoscope experiment, fully specified.
type Study struct {
	// Params is the Table I test-parameter document. Params.Sorted runs
	// the paper's §III-D sorted flow instead of the full round-robin.
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
	// Concurrency runs up to this many participant sessions in parallel
	// (0 or 1 = sequential). Participants on a crowdsourcing platform are
	// naturally concurrent; each parallel session gets its own random
	// stream seeded deterministically from the study RNG, so results stay
	// reproducible for a given concurrency setting.
	Concurrency int
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
	return nil
}

// Outcome is a completed study.
type Outcome struct {
	Prepared    *aggregator.Prepared
	Recruitment *crowd.RecruitmentResult
	Sessions    []server.SessionUpload
	// Raw and Filtered are the served /results and /results?quality=1.
	Raw      *server.Results
	Filtered *server.Results
}

// RunStudy executes the full pipeline on bed and returns the outcome.
// Every session a participant finishes is acknowledged to the bed, so a
// study's bed runs no sequential engine: a test it decided early would
// leave a finished session unstored.
func RunStudy(bed *testbed.Bed, study *Study, rng *rand.Rand) (*Outcome, error) {
	if err := study.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("core: nil random source")
	}
	if bed == nil || bed.Top.EarlyStopAlpha > 0 {
		return nil, errors.New("core: a study needs a bed without early stopping")
	}

	// Stage 1: aggregate, onto every shard of the deployment.
	prep, err := bed.Prepare(study.Params, study.Sites, study.Controls)
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
	// the deployment's front door — in recruit order from the study's own
	// stream, or concurrently, each from a seed drawn from it up front.
	workers := make([]*crowd.Worker, len(recruitment.Recruits))
	rngs := make([]*rand.Rand, len(workers))
	for i, rec := range recruitment.Recruits {
		workers[i], rngs[i] = rec.Worker, rng
	}
	if study.Concurrency > 1 {
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(rng.Int63()))
		}
	}
	cr := testbed.Crowd{Test: study.Params.TestID, Concurrency: max(study.Concurrency, 1)}
	outcome := &Outcome{Prepared: prep, Recruitment: recruitment, Sessions: make([]server.SessionUpload, len(workers))}
	for i, a := range bed.RunCrowd(0, cr, workers, rngs, study.Answer, nil).Attempts {
		if a.Err != nil {
			return nil, fmt.Errorf("core: %w", a.Err)
		}
		outcome.Sessions[i] = *a.Session
	}

	// Stage 4: read the results the deployment serves.
	outcome.Raw, outcome.Filtered, err = bed.AuditTest(study.Params.TestID)
	if err != nil {
		return nil, err
	}
	return outcome, nil
}
