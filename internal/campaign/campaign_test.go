package campaign

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// tenantSpec builds one two-version font-size test; tenants with the same
// contentSeed generate byte-identical sites and should dedup in the CAS
// blob layer.
func tenantSpec(i int, contentSeed int64, sessions int) Spec {
	id := fmt.Sprintf("tenant-%02d", i)
	left := fmt.Sprintf("wiki-%d-12", contentSeed)
	right := fmt.Sprintf("wiki-%d-22", contentSeed)
	return Spec{
		Test: &params.Test{
			TestID:          id,
			WebpageNum:      2,
			TestDescription: "campaign tenant " + id,
			ParticipantNum:  sessions,
			Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
			Webpages: []params.Webpage{
				{WebPath: left, WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
				{WebPath: right, WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			},
		},
		Sites: map[string]*webgen.Site{
			left:  webgen.WikiArticle(webgen.WikiConfig{Seed: contentSeed, FontSizePt: 12}),
			right: webgen.WikiArticle(webgen.WikiConfig{Seed: contentSeed, FontSizePt: 22}),
		},
		Sessions: sessions,
		Answer:   extension.AnswerFontSize(),
	}
}

func TestCampaignLifecycle(t *testing.T) {
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(11))
	pop, err := crowd.NewPopulation(8, crowd.CampaignCrowdMix, false, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant 2 shares tenant 0's page content: cross-tenant dedup.
	specs := []Spec{tenantSpec(0, 100, 3), tenantSpec(1, 200, 3), tenantSpec(2, 100, 3)}
	camp := &Campaign{
		BaseURL:     ts.URL,
		DB:          db,
		Blobs:       blobs,
		Agg:         agg,
		Specs:       specs,
		Pop:         pop,
		Mix:         crowd.CampaignCrowdMix,
		Seed:        11,
		Concurrency: 4,
		Policy:      failover.Policy{Retries: 3},
		Oracle:      srv.ConcludeScratch,
		Logf:        t.Logf,
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	if rep.TotalAcked != 9 {
		t.Errorf("TotalAcked = %d, want 9", rep.TotalAcked)
	}
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		if !tr.Deleted {
			t.Errorf("tenant %s not deleted", tr.TestID)
		}
		if len(tr.Acked) != 3 {
			t.Errorf("tenant %s acked %d, want 3", tr.TestID, len(tr.Acked))
		}
	}
	// The wave guarantees every Prepare after the first overlaps a
	// serving neighbor.
	for _, tr := range rep.Tenants[1:] {
		if !tr.PreparedDuringServe {
			t.Errorf("tenant %s Prepare did not overlap serving", tr.TestID)
		}
	}
	// Tenant 2 re-stored tenant 0's content: its Prepare must have saved
	// bytes through the CAS layer (tenant 0 was still live — the wave
	// keeps lifecycles overlapping).
	if rep.Tenants[2].DedupBytes <= rep.Tenants[1].DedupBytes {
		t.Errorf("content-sharing tenant saved %d bytes, non-sharing %d — expected more",
			rep.Tenants[2].DedupBytes, rep.Tenants[1].DedupBytes)
	}
	if rep.DedupBytesSaved <= 0 {
		t.Error("campaign saved no dedup bytes")
	}
	// Churn leak check: every tenant deleted, blob store back to baseline.
	if rep.UniqueBlobsAfter != rep.UniqueBlobsBefore {
		t.Errorf("UniqueBlobs %d -> %d: campaign leaked blobs", rep.UniqueBlobsBefore, rep.UniqueBlobsAfter)
	}
	if n := db.Collection(aggregator.TestsCollection).Count(); n != 0 {
		t.Errorf("%d test docs survive the campaign", n)
	}
	if n := db.Collection(aggregator.ResponsesCollection).Count(); n != 0 {
		t.Errorf("%d sessions survive the campaign", n)
	}
}

func TestCampaignValidation(t *testing.T) {
	c := &Campaign{}
	if _, err := c.Run(); err == nil {
		t.Error("empty campaign should fail")
	}
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, _ := aggregator.New(db, blobs)
	c = &Campaign{BaseURL: "http://x", DB: db, Blobs: blobs, Agg: agg}
	if _, err := c.Run(); err == nil {
		t.Error("campaign without specs should fail")
	}
}
