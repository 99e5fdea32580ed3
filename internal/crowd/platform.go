package crowd

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Job is a crowdsourcing task posting — what Kaleidoscope's core server
// sends to the platform.
type Job struct {
	// TestID links the posting to a Kaleidoscope test.
	TestID string
	// Title and Instructions are shown to workers.
	Title        string
	Instructions string
	// RequiredWorkers is how many participants to recruit.
	RequiredWorkers int
	// PaymentUSD is the per-worker reward (the paper pays $0.10-0.11).
	PaymentUSD float64
	// TrustedOnly restricts recruitment to the historically-trustworthy
	// tier.
	TrustedOnly bool
	// Target restricts recruitment to matching demographics (nil = any).
	Target *Targeting
}

// Validate checks the posting.
func (j Job) Validate() error {
	if j.TestID == "" {
		return errors.New("crowd: job missing test id")
	}
	if j.RequiredWorkers <= 0 {
		return errors.New("crowd: job needs at least one worker")
	}
	if j.PaymentUSD < 0 {
		return errors.New("crowd: negative payment")
	}
	if err := j.Target.Validate(); err != nil {
		return err
	}
	return nil
}

// Recruitment is one worker's enrolment.
type Recruitment struct {
	Worker *Worker
	// ArrivedAfter is the delay from job posting to this worker starting.
	ArrivedAfter time.Duration
}

// RecruitmentResult is the outcome of posting a job.
type RecruitmentResult struct {
	Job      Job
	Recruits []Recruitment
	// Completed is when the last required worker arrived.
	Completed time.Duration
	// TotalCostUSD is workers x payment.
	TotalCostUSD float64
}

// Platform simulates a crowdsourcing marketplace: a pool of available
// workers and an arrival process. The default arrival rate is calibrated
// to the paper's observation that ~100 workers arrive in ~12 hours.
type Platform struct {
	// Pool is the worker supply recruitment draws from.
	Pool *Population
	// MeanInterarrival is the average gap between consecutive worker
	// arrivals (exponentially distributed).
	MeanInterarrival time.Duration
}

// DefaultMeanInterarrival reproduces the paper's recruitment speed:
// 100 workers in ~12 h => 7.2 minutes between arrivals.
const DefaultMeanInterarrival = 72 * time.Minute / 10

// NewPlatform wires a platform over a worker pool. A zero mean
// interarrival picks the paper-calibrated default.
func NewPlatform(pool *Population, meanInterarrival time.Duration) (*Platform, error) {
	if pool == nil || len(pool.Workers) == 0 {
		return nil, errors.New("crowd: platform needs a non-empty pool")
	}
	if meanInterarrival < 0 {
		return nil, errors.New("crowd: negative interarrival")
	}
	if meanInterarrival == 0 {
		meanInterarrival = DefaultMeanInterarrival
	}
	return &Platform{Pool: pool, MeanInterarrival: meanInterarrival}, nil
}

// Post recruits workers for the job: eligible pool members arrive in
// random order with exponential interarrival times until the required
// count is reached.
func (p *Platform) Post(job Job, rng *rand.Rand) (*RecruitmentResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("crowd: nil random source")
	}
	eligible := make([]*Worker, 0, len(p.Pool.Workers))
	for _, w := range p.Pool.Workers {
		if job.TrustedOnly && !w.Trusted {
			continue
		}
		if !job.Target.Matches(w.Demo) {
			continue
		}
		eligible = append(eligible, w)
	}
	if len(eligible) < job.RequiredWorkers {
		return nil, fmt.Errorf("crowd: pool has %d eligible workers, job needs %d", len(eligible), job.RequiredWorkers)
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })

	res := &RecruitmentResult{Job: job}
	var clock time.Duration
	for i := 0; i < job.RequiredWorkers; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(p.MeanInterarrival))
		clock += gap
		res.Recruits = append(res.Recruits, Recruitment{Worker: eligible[i], ArrivedAfter: clock})
	}
	res.Completed = clock
	res.TotalCostUSD = float64(job.RequiredWorkers) * job.PaymentUSD
	return res, nil
}

// ArrivalCurve returns the cumulative recruitment curve as (elapsed,
// count) samples — the data behind the paper's Fig. 7(a).
func (r *RecruitmentResult) ArrivalCurve() []ArrivalPoint {
	pts := make([]ArrivalPoint, 0, len(r.Recruits))
	sorted := append([]Recruitment(nil), r.Recruits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ArrivedAfter < sorted[j].ArrivedAfter })
	for i, rec := range sorted {
		pts = append(pts, ArrivalPoint{Elapsed: rec.ArrivedAfter, Count: i + 1})
	}
	return pts
}

// ArrivalPoint is one step of a cumulative recruitment curve.
type ArrivalPoint struct {
	Elapsed time.Duration
	Count   int
}
