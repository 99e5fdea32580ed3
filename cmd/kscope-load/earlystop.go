package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/campaign"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
)

// earlystopScenario runs the adaptive-sequential acceptance: a campaign of
// three tenants against an early-stopping server, where two tenants run
// strong-effect font-size studies (a crowd that overwhelmingly prefers
// ~12pt body text judging 12pt vs 22pt) with a generous fixed session
// target, and one runs an evidence-free study no honest sequential test
// can ever decide. The whole campaign shares a session budget deliberately
// smaller than the combined fixed-n cost, so the run can only complete if
// decided tenants actually release their unspent sessions to undecided
// neighbors. The run fails unless all gates hold:
//
//  1. both effect tenants conclude early with the correct winner (the
//     12pt side) and a certified p-value bound <= -alpha, each spending
//     strictly fewer stored sessions than its fixed target;
//  2. the null tenant never concludes, runs to its full fixed target, and
//     its results carry no decision metadata;
//  3. campaign-wide realized cost is strictly below the fixed-n cost and
//     within the shared -budget;
//  4. the standing campaign audits hold: per-tenant oracle equality (after
//     stripping decision metadata), zero acked-upload loss, and no server
//     status outside 200/201/409 (404 only on post-delete probes).
func earlystopScenario(cfg config, out io.Writer) error {
	if !(cfg.alpha > 0 && cfg.alpha < 1) {
		return fmt.Errorf("-alpha %v: need 0 < alpha < 1", cfg.alpha)
	}
	if cfg.budget < 1 {
		return fmt.Errorf("-budget %d: the scenario needs a positive shared session budget", cfg.budget)
	}

	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(db, blobs,
		server.WithObservability(reg),
		server.WithEarlyStop(server.EarlyStopConfig{Alpha: cfg.alpha}))
	if err != nil {
		return err
	}
	var statuses statusTable
	ts := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer ts.Close()

	// Two strong-effect tenants with a fixed-n target far beyond what the
	// evidence needs, one evidence-free tenant that abstains on every
	// comparison (no sequential test can decide it, so it must spend its
	// whole fixed target).
	const effectTarget, nullTarget = 40, 12
	nullSpec := tenantSpec(2, 13, nullTarget)
	nullSpec.Answer = func(_ *crowd.Worker, _ *extension.PageContext, _ string, _ *rand.Rand) (questionnaire.Choice, string) {
		return questionnaire.ChoiceSame, ""
	}
	specs := []campaign.Spec{
		tenantSpec(0, 11, effectTarget),
		tenantSpec(1, 12, effectTarget),
		nullSpec,
	}
	fixedTotal := 2*effectTarget + nullTarget
	if cfg.budget >= fixedTotal {
		return fmt.Errorf("-budget %d >= fixed-n cost %d: the budget gate would prove nothing", cfg.budget, fixedTotal)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	pop, err := crowd.NewPopulation(cfg.workers, crowd.CampaignCrowdMix, cfg.trusted, rng)
	if err != nil {
		return err
	}

	camp := &campaign.Campaign{
		BaseURL:        ts.URL,
		DB:             db,
		Blobs:          blobs,
		Agg:            agg,
		Specs:          specs,
		Pop:            pop,
		Mix:            crowd.CampaignCrowdMix,
		Trusted:        cfg.trusted,
		Seed:           cfg.seed,
		Concurrency:    cfg.concurrency,
		Policy:         failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond},
		Registry:       reg,
		Oracle:         srv.ConcludeScratch,
		StopOnDecision: true,
		Budget:         cfg.budget,
	}
	rep, err := camp.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "kscope-earlystop: 3 tenants (2 effect × %d, 1 null × %d), alpha %g, shared budget %d < fixed %d (seed %d)\n",
		effectTarget, nullTarget, cfg.alpha, cfg.budget, fixedTotal, cfg.seed)
	fmt.Fprintf(out, "%-12s %6s %6s %9s %6s %-6s %10s %7s\n",
		"tenant", "fixed", "spent", "saved", "winner", "", "p-bound", "n-used")
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		winner, pBound, nUsed := "—", "—", "—"
		if tr.Decision != nil {
			winner = string(tr.Decision.Winner)
			pBound = fmt.Sprintf("%.2e", tr.Decision.PValueBound)
			nUsed = fmt.Sprintf("%d", tr.Decision.NUsed)
		}
		fmt.Fprintf(out, "%-12s %6d %6d %9d %6s %-6s %10s %7s\n",
			tr.TestID, tr.FixedCost, tr.RealizedCost, tr.SessionsSaved, winner, "", pBound, nUsed)
	}
	saved := rep.TotalFixedCost - rep.TotalRealizedCost
	fmt.Fprintf(out, "cost: %d stored of %d fixed-n (%.0f%% saved); budget %d, %d unspent\n",
		rep.TotalRealizedCost, rep.TotalFixedCost, 100*float64(saved)/float64(rep.TotalFixedCost),
		cfg.budget, rep.BudgetUnspent)
	printLatencies(out, reg)
	statuses.print(out)

	// Gate 1: both effect tenants decided early, correctly, and cheaply.
	for _, tr := range rep.Tenants[:2] {
		if !tr.Concluded || tr.Decision == nil {
			return fmt.Errorf("decision gate: effect tenant %s never concluded in %d sessions", tr.TestID, tr.FixedCost)
		}
		if tr.Decision.Winner != questionnaire.ChoiceLeft {
			return fmt.Errorf("decision gate: tenant %s winner %q, want %q (the 12pt side)",
				tr.TestID, tr.Decision.Winner, questionnaire.ChoiceLeft)
		}
		if tr.Decision.PValueBound > cfg.alpha {
			return fmt.Errorf("decision gate: tenant %s p-value bound %v > alpha %v",
				tr.TestID, tr.Decision.PValueBound, cfg.alpha)
		}
		if tr.RealizedCost >= tr.FixedCost {
			return fmt.Errorf("cost gate: tenant %s stored %d sessions, fixed-n %d — stopping saved nothing",
				tr.TestID, tr.RealizedCost, tr.FixedCost)
		}
	}

	// Gate 2: the evidence-free tenant stayed honest — undecided at full
	// fixed cost.
	null := &rep.Tenants[2]
	if null.Concluded || null.Decision != nil {
		return fmt.Errorf("honesty gate: evidence-free tenant concluded: %+v", null.Decision)
	}
	if null.RealizedCost != nullTarget {
		return fmt.Errorf("honesty gate: null tenant stored %d sessions, want its full fixed target %d",
			null.RealizedCost, nullTarget)
	}

	// Gate 3: the campaign as a whole cost strictly less than fixed-n and
	// fit the shared budget.
	if rep.TotalRealizedCost >= rep.TotalFixedCost {
		return fmt.Errorf("cost gate: realized %d >= fixed-n %d", rep.TotalRealizedCost, rep.TotalFixedCost)
	}
	if rep.TotalRealizedCost > cfg.budget {
		return fmt.Errorf("cost gate: realized %d exceeds the shared budget %d", rep.TotalRealizedCost, cfg.budget)
	}

	// Gate 4 remainder (oracle equality and acked-loss run inside each
	// tenant's conclude): statuses. 404 is the post-delete probe answer;
	// anything else outside 200/201/409 is a server failure.
	if bad := statuses.unexpected(http.StatusNotFound); len(bad) > 0 {
		return fmt.Errorf("server produced unexpected statuses: %v", bad)
	}

	fmt.Fprintf(out, "earlystop gates: decisions ✓ (winner=left, p<=%g), honesty ✓ (null undecided), cost %d<%d ✓, oracle+acked ✓\n",
		cfg.alpha, rep.TotalRealizedCost, rep.TotalFixedCost)
	return nil
}
