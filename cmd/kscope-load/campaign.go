package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/campaign"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/testbed"
)

// newCampaign wires a campaign onto the bed: the bed prepares each tenant,
// carries all participant traffic through the front door with a seeded
// chaos link per session, and audits each tenant before it is deleted.
func newCampaign(cfg config, bed *testbed.Bed, specs []campaign.Spec) (*campaign.Campaign, error) {
	pop, err := crowd.NewPopulation(cfg.workers, crowd.CampaignCrowdMix, cfg.trusted, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	return &campaign.Campaign{Bed: bed, Specs: specs, Pop: pop, Mix: crowd.CampaignCrowdMix,
		Trusted: cfg.trusted, Concurrency: cfg.concurrency}, nil
}

// tenantSpec builds tenant i's two-version font-size study over the
// content generated from contentSeed.
func tenantSpec(i int, contentSeed int64, sessions int) campaign.Spec {
	id := fmt.Sprintf("tenant-%02d", i)
	return campaign.Spec{
		Test:     fontSizeTest(id, "campaign tenant "+id, sessions, contentSeed),
		Sites:    fontSizeSites(contentSeed),
		Sessions: sessions,
		Answer:   extension.AnswerFontSize(),
	}
}

func campaignTopology(cfg config) (testbed.Topology, error) {
	if cfg.tests < 2 {
		return testbed.Topology{}, fmt.Errorf("-tests %d: campaign needs at least 2 tenants to measure interference", cfg.tests)
	}
	if cfg.perTest < 1 {
		return testbed.Topology{}, fmt.Errorf("-per-test %d: each tenant needs at least one session", cfg.perTest)
	}
	return testbed.Topology{}, nil
}

// campaignDrive runs the multi-tenant churn acceptance: -tests tenants walk
// their full lifecycle (Prepare overlapping a neighbor's serving, serve
// under a shared churning crowd, conclude against a per-tenant differential
// oracle, delete mid-campaign) with every participant request behind a
// seeded chaos link. Inside the campaign, every tenant's results deep-equal
// its from-scratch oracle (no cross-tenant interference) and every acked
// upload survives until that tenant's deletion. Its own gates:
//
//  1. p99 on the serving endpoints stays under -max-p99 even while
//     neighbors run Prepare in parallel;
//  2. the churn is real — workers vanish mid-campaign, partial sessions
//     land, replacements are recruited — and deleting tenants while others
//     serve leaks nothing (blob store back to baseline, collections empty);
//  3. tenants sharing page content dedup through the CAS layer, saving at
//     least -dedup-floor bytes campaign-wide.
func campaignDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	// Content groups of two — tenant i shares generated page content with
	// tenant i + tests/2, so half the Prepares re-store bytes the CAS layer
	// already holds for a live neighbor.
	specs := make([]campaign.Spec, cfg.tests)
	for i := range specs {
		specs[i] = tenantSpec(i, int64(11+i%((cfg.tests+1)/2)), cfg.perTest)
	}
	camp, err := newCampaign(cfg, bed, specs)
	if err != nil {
		return nil, err
	}
	rep, err := camp.Run()
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "campaign: %d tenants × %d sessions, %d-worker crowd, concurrency %d\n",
		cfg.tests, cfg.perTest, cfg.workers, cfg.concurrency)
	fmt.Fprintf(out, "%-12s %6s %8s %8s %9s %8s %10s %14s %8s\n",
		"tenant", "acked", "partial", "vanish", "recruit", "dedup", "prep", "prep-overlap", "del-ovl")
	overlapPrep, overlapDel := 0, 0
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		fmt.Fprintf(out, "%-12s %6d %8d %8d %9d %7dK %10s %14v %8v\n",
			tr.TestID, len(tr.Acked), tr.Partials, tr.Vanished, tr.Recruited, tr.DedupBytes/1024,
			tr.PrepareElapsed.Round(time.Millisecond), tr.PreparedDuringServe, tr.DeleteOverlappedServing)
		if tr.PreparedDuringServe {
			overlapPrep++
		}
		if tr.DeleteOverlappedServing {
			overlapDel++
		}
	}
	fmt.Fprintf(out, "churn: %d acked, %d partial, %d vanished, %d recruited over %s\n",
		rep.TotalAcked, rep.TotalPartials, rep.TotalVanished, rep.TotalRecruited, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "crowd: %v\n", rep.ArchetypeCounts)
	fmt.Fprintf(out, "dedup: %d bytes saved by shared content; blobs %d -> %d unique\n",
		rep.DedupBytesSaved, rep.UniqueBlobsBefore, rep.UniqueBlobsAfter)

	return func() error {
		// Gate 1: serving p99 stays bounded while neighbors Prepare.
		if cfg.maxP99 > 0 {
			if err := checkP99(bed, cfg.maxP99, "while neighbors ran Prepare", "GET /api/tests/{id}",
				"GET /api/tests/{id}/pages", "POST /api/tests/{id}/sessions", "GET /api/tests/{id}/results"); err != nil {
				return err
			}
		}

		// Gate 2: churn was real and leaked nothing.
		if rep.TotalVanished == 0 {
			return fmt.Errorf("churn gate: no worker vanished mid-campaign; the scenario no longer exercises abandonment (try another -seed)")
		}
		if rep.TotalPartials == 0 {
			return fmt.Errorf("churn gate: no partial session landed; the scenario no longer exercises mid-session abandonment")
		}
		if rep.TotalRecruited == 0 {
			return fmt.Errorf("churn gate: no replacement worker recruited")
		}
		for _, a := range []crowd.Archetype{crowd.Surveyor, crowd.TaskDriven} {
			if rep.ArchetypeCounts[a] == 0 {
				return fmt.Errorf("churn gate: crowd contains no %s workers", a)
			}
		}
		if overlapPrep == 0 {
			return fmt.Errorf("interference gate: no tenant's Prepare overlapped a neighbor's serving")
		}
		if overlapDel == 0 {
			return fmt.Errorf("interference gate: no tenant was deleted while a neighbor served")
		}
		if rep.UniqueBlobsAfter != rep.UniqueBlobsBefore {
			return fmt.Errorf("leak gate: blob store has %d unique blobs after full churn, had %d before",
				rep.UniqueBlobsAfter, rep.UniqueBlobsBefore)
		}
		for i, db := range bed.Stores() {
			for _, coll := range []string{aggregator.TestsCollection, aggregator.PagesCollection, aggregator.ResponsesCollection} {
				if n := db.Collection(coll).Count(); n != 0 {
					return fmt.Errorf("leak gate: %d %s documents survive the campaign on shard %d", n, coll, i)
				}
			}
		}

		// Gate 3: shared content actually dedups through the CAS layer.
		if cfg.dedupFloor > 0 && rep.DedupBytesSaved < cfg.dedupFloor {
			return fmt.Errorf("dedup gate: campaign saved %d bytes, floor is %d — content sharing is not reaching the CAS layer",
				rep.DedupBytesSaved, cfg.dedupFloor)
		}
		fmt.Fprintf(out, "campaign gates: oracle+acked ✓, p99<%.*fms ✓, churn+leak ✓, dedup≥%d ✓\n",
			0, cfg.maxP99, cfg.dedupFloor)
		return nil
	}, nil
}

func earlystopTopology(cfg config) (testbed.Topology, error) {
	if !(cfg.alpha > 0 && cfg.alpha < 1) {
		return testbed.Topology{}, fmt.Errorf("-alpha %v: need 0 < alpha < 1", cfg.alpha)
	}
	if cfg.budget < 1 {
		return testbed.Topology{}, fmt.Errorf("-budget %d: the scenario needs a positive shared session budget", cfg.budget)
	}
	if fixed := 2*effectTarget + nullTarget; cfg.budget >= fixed {
		return testbed.Topology{}, fmt.Errorf("-budget %d >= fixed-n cost %d: the budget gate would prove nothing", cfg.budget, fixed)
	}
	return testbed.Topology{EarlyStopAlpha: cfg.alpha}, nil
}

// Two strong-effect tenants with a fixed-n target far beyond what the
// evidence needs, one evidence-free tenant that must spend its whole
// fixed target.
const effectTarget, nullTarget = 40, 12

// earlystopDrive runs the adaptive-sequential acceptance: a campaign of
// three tenants against an early-stopping node, where two tenants run
// strong-effect font-size studies (a crowd that overwhelmingly prefers
// ~12pt body text judging 12pt vs 22pt) and one runs an evidence-free study
// no honest sequential test can ever decide. The whole campaign shares a
// session budget deliberately smaller than the combined fixed-n cost, so
// the run can only complete if decided tenants actually release their
// unspent sessions to undecided neighbors. The campaign's per-tenant oracle
// (after stripping decision metadata) and acked-loss audits stand; its own
// gates:
//
//  1. both effect tenants conclude early with the correct winner (the
//     12pt side) and a certified p-value bound <= -alpha, each spending
//     strictly fewer stored sessions than its fixed target;
//  2. the null tenant never concludes, runs to its full fixed target, and
//     its results carry no decision metadata;
//  3. campaign-wide realized cost is strictly below the fixed-n cost and
//     within the shared -budget.
func earlystopDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	// The null tenant abstains on every comparison: no sequential test can
	// decide it.
	nullSpec := tenantSpec(2, 13, nullTarget)
	nullSpec.Answer = func(_ *crowd.Worker, _ *extension.PageContext, _ string, _ *rand.Rand) (questionnaire.Choice, string) {
		return questionnaire.ChoiceSame, ""
	}
	camp, err := newCampaign(cfg, bed, []campaign.Spec{tenantSpec(0, 11, effectTarget), tenantSpec(1, 12, effectTarget), nullSpec})
	if err != nil {
		return nil, err
	}
	camp.Budget = cfg.budget
	rep, err := camp.Run()
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "earlystop: 3 tenants (2 effect × %d, 1 null × %d), alpha %g, shared budget %d < fixed %d\n",
		effectTarget, nullTarget, cfg.alpha, cfg.budget, rep.TotalFixedCost)
	fmt.Fprintf(out, "%-12s %6s %6s %9s %6s %10s %7s\n", "tenant", "fixed", "spent", "saved", "winner", "p-bound", "n-used")
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		winner, pBound, nUsed := "—", "—", "—"
		if tr.Decision != nil {
			winner = string(tr.Decision.Winner)
			pBound = fmt.Sprintf("%.2e", tr.Decision.PValueBound)
			nUsed = fmt.Sprintf("%d", tr.Decision.NUsed)
		}
		fmt.Fprintf(out, "%-12s %6d %6d %9d %6s %10s %7s\n",
			tr.TestID, tr.FixedCost, tr.RealizedCost, tr.SessionsSaved, winner, pBound, nUsed)
	}
	saved := rep.TotalFixedCost - rep.TotalRealizedCost
	fmt.Fprintf(out, "cost: %d stored of %d fixed-n (%.0f%% saved); budget %d, %d unspent\n",
		rep.TotalRealizedCost, rep.TotalFixedCost, 100*float64(saved)/float64(rep.TotalFixedCost),
		cfg.budget, rep.BudgetUnspent)

	return func() error {
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
		fmt.Fprintf(out, "earlystop gates: decisions ✓ (winner=left, p<=%g), honesty ✓ (null undecided), cost %d<%d ✓, oracle+acked ✓\n",
			cfg.alpha, rep.TotalRealizedCost, rep.TotalFixedCost)
		return nil
	}, nil
}
