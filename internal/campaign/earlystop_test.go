package campaign

import (
	"math/rand"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/testbed"
)

// answerAlwaysSame abstains on every comparison: an evidence-free tenant
// whose test the sequential engine can never decide.
func answerAlwaysSame() extension.AnswerFunc {
	return func(_ *crowd.Worker, _ *extension.PageContext, _ string, _ *rand.Rand) (questionnaire.Choice, string) {
		return questionnaire.ChoiceSame, ""
	}
}

// A campaign against an early-stopping node: the strong-effect tenant
// (12pt vs 22pt body text, a crowd that overwhelmingly prefers ~12pt) must
// conclude well short of its fixed session target, spending strictly less
// than the fixed-n design, while the evidence-free tenant runs to its full
// target undecided and its results stay free of decision metadata. The
// shared budget is sized below the combined fixed cost, so the run only
// succeeds because the decided tenant's unspent units stay available.
func TestCampaignEarlyStopping(t *testing.T) {
	bed := startBed(t, testbed.Topology{EarlyStopAlpha: 0.05}, 7)
	pop, err := crowd.NewPopulation(8, crowd.CampaignCrowdMix, false, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	const strongTarget, nullTarget, budget = 20, 10, 26
	nullSpec := tenantSpec(1, 200, nullTarget)
	nullSpec.Answer = answerAlwaysSame()
	specs := []Spec{tenantSpec(0, 100, strongTarget), nullSpec}
	camp := &Campaign{
		Bed:         bed,
		Specs:       specs,
		Pop:         pop,
		Mix:         crowd.CampaignCrowdMix,
		Concurrency: 4,
		Budget:      budget,
		Logf:        t.Logf,
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	strong, null := &rep.Tenants[0], &rep.Tenants[1]
	if !strong.Concluded || strong.Decision == nil {
		t.Fatalf("strong-effect tenant did not conclude: %+v", strong)
	}
	if strong.Decision.Winner != questionnaire.ChoiceLeft {
		t.Errorf("strong tenant winner = %q, want left (12pt)", strong.Decision.Winner)
	}
	if strong.Decision.PValueBound > 0.05 {
		t.Errorf("decision p bound %v > alpha", strong.Decision.PValueBound)
	}
	if strong.RealizedCost >= strong.FixedCost {
		t.Errorf("strong tenant realized %d >= fixed %d: early stopping saved nothing",
			strong.RealizedCost, strong.FixedCost)
	}
	if strong.SessionsSaved == 0 {
		t.Error("strong tenant saved no sessions")
	}
	if strong.RealizedCost != len(strong.Acked) {
		t.Errorf("realized cost %d != acked %d", strong.RealizedCost, len(strong.Acked))
	}

	if null.Concluded || null.Decision != nil {
		t.Errorf("evidence-free tenant concluded: %+v", null.Decision)
	}
	if null.RealizedCost != nullTarget {
		t.Errorf("null tenant realized %d, want its full fixed target %d", null.RealizedCost, nullTarget)
	}

	if rep.TotalRealizedCost >= rep.TotalFixedCost {
		t.Errorf("campaign realized %d >= fixed %d", rep.TotalRealizedCost, rep.TotalFixedCost)
	}
	if want := budget - rep.TotalRealizedCost; rep.BudgetUnspent != want {
		t.Errorf("budget unspent %d, want %d (budget %d - realized %d)",
			rep.BudgetUnspent, want, budget, rep.TotalRealizedCost)
	}
	for i := range rep.Tenants {
		if !rep.Tenants[i].Deleted {
			t.Errorf("tenant %s not deleted", rep.Tenants[i].TestID)
		}
	}
}
