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
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// campaign runs the multi-tenant churn acceptance: -tests tenants walk
// their full lifecycle (Prepare overlapping a neighbor's serving, serve
// under a shared churning crowd, conclude against a per-tenant differential
// oracle, delete mid-campaign) with every participant request behind a
// seeded ChaosTransport. The run fails unless all four gates hold:
//
//  1. every tenant's incremental results deep-equal its from-scratch
//     oracle (no cross-tenant interference), and every acked upload
//     survives until that tenant's deletion;
//  2. p99 on the serving endpoints stays under -max-p99 even while
//     neighbors run Prepare in parallel;
//  3. the churn is real — workers vanish mid-campaign, partial sessions
//     land, replacements are recruited — and deleting tenants while others
//     serve leaks nothing (blob store back to baseline, collections empty);
//  4. tenants sharing page content dedup through the CAS layer, saving at
//     least -dedup-floor bytes campaign-wide.
func campaignScenario(cfg config, out io.Writer) error {
	if cfg.tests < 2 {
		return fmt.Errorf("-tests %d: campaign needs at least 2 tenants to measure interference", cfg.tests)
	}
	if cfg.perTest < 1 {
		return fmt.Errorf("-per-test %d: each tenant needs at least one session", cfg.perTest)
	}

	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(db, blobs, server.WithObservability(reg))
	if err != nil {
		return err
	}
	var statuses statusTable
	ts := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer ts.Close()

	// Tenant specs: content groups of two — tenant i shares generated page
	// content with tenant i + tests/2, so half the Prepares re-store bytes
	// the CAS layer already holds for a live neighbor.
	specs := make([]campaign.Spec, cfg.tests)
	for i := range specs {
		contentSeed := int64(11 + i%((cfg.tests+1)/2))
		specs[i] = tenantSpec(i, contentSeed, cfg.perTest)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	pop, err := crowd.NewPopulation(cfg.workers, crowd.CampaignCrowdMix, cfg.trusted, rng)
	if err != nil {
		return err
	}

	chaosOn := cfg.drop > 0 || cfg.fault > 0 || cfg.delayScale > 0
	camp := &campaign.Campaign{
		BaseURL:     ts.URL,
		DB:          db,
		Blobs:       blobs,
		Agg:         agg,
		Specs:       specs,
		Pop:         pop,
		Mix:         crowd.CampaignCrowdMix,
		Trusted:     cfg.trusted,
		Seed:        cfg.seed,
		Concurrency: cfg.concurrency,
		Policy:      failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond},
		Registry:    reg,
		Oracle:      srv.ConcludeScratch,
	}
	if chaosOn {
		camp.Transport = func(session int) http.RoundTripper {
			chaosCfg := netsim.ChaosConfig{DropRate: cfg.drop, FaultRate: cfg.fault}
			if cfg.delayScale > 0 {
				p := netsim.Profile4G
				chaosCfg.Delay = &p
				chaosCfg.DelayScale = cfg.delayScale
			}
			t, err := netsim.NewChaosTransport(http.DefaultTransport,
				chaosCfg, rand.New(rand.NewSource(cfg.seed+int64(session)+7919)))
			if err != nil {
				panic(err) // only reachable with a nil rng
			}
			return t
		}
	}

	rep, err := camp.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "kscope-campaign: %d tenants × %d sessions, %d-worker crowd (seed %d, concurrency %d)",
		cfg.tests, cfg.perTest, cfg.workers, cfg.seed, cfg.concurrency)
	if chaosOn {
		fmt.Fprintf(out, ", chaos drop=%.0f%% fault=%.0f%% delay-scale=%g", cfg.drop*100, cfg.fault*100, cfg.delayScale)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-12s %6s %8s %8s %9s %8s %10s %14s %8s\n",
		"tenant", "acked", "partial", "vanish", "recruit", "dedup", "prep", "prep-overlap", "del-ovl")
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		fmt.Fprintf(out, "%-12s %6d %8d %8d %9d %7dK %10s %14v %8v\n",
			tr.TestID, len(tr.Acked), tr.Partials, tr.Vanished, tr.Recruited, tr.DedupBytes/1024,
			tr.PrepareElapsed.Round(time.Millisecond), tr.PreparedDuringServe, tr.DeleteOverlappedServing)
	}
	fmt.Fprintf(out, "churn: %d acked, %d partial, %d vanished, %d recruited over %s\n",
		rep.TotalAcked, rep.TotalPartials, rep.TotalVanished, rep.TotalRecruited, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "crowd: %v\n", rep.ArchetypeCounts)
	fmt.Fprintf(out, "dedup: %d bytes saved by shared content; blobs %d -> %d unique\n",
		rep.DedupBytesSaved, rep.UniqueBlobsBefore, rep.UniqueBlobsAfter)
	printLatencies(out, reg)
	statuses.print(out)

	// Gate 1 remainder (oracle equality and acked-loss run inside each
	// tenant's conclude): statuses. 404 is legitimate here — deleteTenant
	// probes each dead tenant's endpoints expecting it — but shed or 5xx
	// statuses are not.
	if bad := statuses.unexpected(http.StatusNotFound); len(bad) > 0 {
		return fmt.Errorf("server produced unexpected statuses: %v", bad)
	}

	// Gate 2: serving p99 stays bounded while neighbors Prepare.
	if cfg.maxP99 > 0 {
		for _, route := range []string{
			"GET /api/tests/{id}",
			"GET /api/tests/{id}/pages",
			"POST /api/tests/{id}/sessions",
			"GET /api/tests/{id}/results",
		} {
			h := reg.Histogram(obs.MetricRequestDuration, obs.DefLatencyBuckets, "route", route)
			if h.Count() == 0 {
				continue
			}
			if p99 := h.Quantile(0.99) * 1000; p99 > cfg.maxP99 {
				return fmt.Errorf("p99 gate: %s p99 %.1fms > %.1fms while neighbors ran Prepare", route, p99, cfg.maxP99)
			}
		}
	}

	// Gate 3: churn was real and leaked nothing.
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
	overlapPrep, overlapDel := 0, 0
	for i := range rep.Tenants {
		if rep.Tenants[i].PreparedDuringServe {
			overlapPrep++
		}
		if rep.Tenants[i].DeleteOverlappedServing {
			overlapDel++
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
	for _, coll := range []string{aggregator.TestsCollection, aggregator.PagesCollection, aggregator.ResponsesCollection} {
		if n := db.Collection(coll).Count(); n != 0 {
			return fmt.Errorf("leak gate: %d %s documents survive the campaign", n, coll)
		}
	}

	// Gate 4: shared content actually dedups through the CAS layer.
	if cfg.dedupFloor > 0 && rep.DedupBytesSaved < cfg.dedupFloor {
		return fmt.Errorf("dedup gate: campaign saved %d bytes, floor is %d — content sharing is not reaching the CAS layer",
			rep.DedupBytesSaved, cfg.dedupFloor)
	}

	fmt.Fprintf(out, "campaign gates: oracle+acked ✓, p99<%.*fms ✓, churn+leak ✓, dedup≥%d ✓\n",
		0, cfg.maxP99, cfg.dedupFloor)
	return nil
}

// tenantSpec builds one tenant's two-version font-size study. Tenants
// constructed with the same contentSeed generate byte-identical sites —
// the cross-tenant sharing the dedup gate measures.
func tenantSpec(i int, contentSeed int64, sessions int) campaign.Spec {
	id := fmt.Sprintf("tenant-%02d", i)
	left := fmt.Sprintf("wiki-%d-12", contentSeed)
	right := fmt.Sprintf("wiki-%d-22", contentSeed)
	return campaign.Spec{
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
