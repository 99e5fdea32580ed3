package campaign

import (
	"fmt"
	"math/rand"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/testbed"
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

// startBed starts a topology for a campaign and closes it with the test.
func startBed(t *testing.T, top testbed.Topology, seed int64) *testbed.Bed {
	t.Helper()
	bed, err := testbed.Start(top, testbed.Run{Seed: seed, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	return bed
}

// TestCampaignLifecycle runs one campaign on each shape a tenant can be
// served from: one memory node, a replicated pair, and three shards behind
// the router. The first tenant shares pages with no other, so what its
// Prepare saves is its own pages' sharing, the same on every shape however
// many shards the bed prepares it on.
func TestCampaignLifecycle(t *testing.T) {
	firstDedup := map[string]int64{}
	for _, tc := range []struct {
		name string
		top  testbed.Topology
	}{
		{"node", testbed.Topology{}},
		{"pair", testbed.Topology{Replicated: true, Store: testbed.Dir}},
		{"fleet", testbed.Topology{Shards: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			firstDedup[tc.name] = testCampaignLifecycle(t, startBed(t, tc.top, 11)).Tenants[0].DedupBytes
		})
	}
	if node, ok := firstDedup["node"]; ok {
		for name, got := range firstDedup {
			if got != node {
				t.Errorf("%s: the first tenant saved %d dedup bytes, %d on one node", name, got, node)
			}
		}
	}
}

func testCampaignLifecycle(t *testing.T, bed *testbed.Bed) *Report {
	pop, err := crowd.NewPopulation(8, crowd.CampaignCrowdMix, false, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}

	// Tenant 2 shares tenant 0's page content: cross-tenant dedup.
	specs := []Spec{tenantSpec(0, 100, 3), tenantSpec(1, 200, 3), tenantSpec(2, 100, 3)}
	camp := &Campaign{
		Bed:         bed,
		Specs:       specs,
		Pop:         pop,
		Mix:         crowd.CampaignCrowdMix,
		Concurrency: 4,
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
	// keeps lifecycles overlapping). One Prepare per tenant, whatever the
	// shard count, so tenant 1 saves no more than on one node.
	if rep.Tenants[2].DedupBytes <= rep.Tenants[1].DedupBytes {
		t.Errorf("content-sharing tenant saved %d bytes, non-sharing %d — expected more",
			rep.Tenants[2].DedupBytes, rep.Tenants[1].DedupBytes)
	}
	if rep.DedupBytesSaved <= 0 {
		t.Error("campaign saved no dedup bytes")
	}
	// Churn leak check: every tenant deleted, blob store back to baseline,
	// no document of any tenant left on any shard.
	if rep.UniqueBlobsAfter != rep.UniqueBlobsBefore {
		t.Errorf("UniqueBlobs %d -> %d: campaign leaked blobs", rep.UniqueBlobsBefore, rep.UniqueBlobsAfter)
	}
	if n := bed.Blobs.Stats().UniqueBlobs; n != 0 {
		t.Errorf("%d blobs survive the campaign", n)
	}
	for i, db := range bed.Stores() {
		for _, coll := range []string{aggregator.TestsCollection, aggregator.PagesCollection, aggregator.ResponsesCollection} {
			if n := db.Collection(coll).Count(); n != 0 {
				t.Errorf("shard %d: %d %s documents survive the campaign", i, n, coll)
			}
		}
	}
	return rep
}

func TestCampaignValidation(t *testing.T) {
	c := &Campaign{}
	if _, err := c.Run(); err == nil {
		t.Error("empty campaign should fail")
	}
	c = &Campaign{Bed: &testbed.Bed{}}
	if _, err := c.Run(); err == nil {
		t.Error("campaign without specs should fail")
	}
}
