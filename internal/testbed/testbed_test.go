package testbed

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

func fixture(id string) Fixture {
	return Fixture{
		Test: &params.Test{
			TestID: id, WebpageNum: 2, TestDescription: "testbed", ParticipantNum: 4,
			Questions: []string{"Which webpage's font size is more suitable (easier) for reading?"},
			Webpages: []params.Webpage{
				{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 100}, WebMainFile: "index.html"},
				{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 100}, WebMainFile: "index.html"},
			},
		},
		Sites: map[string]*webgen.Site{
			"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, Sections: 1, ParagraphsPerSection: 1, FontSizePt: 12}),
			"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, Sections: 1, ParagraphsPerSection: 1, FontSizePt: 22}),
		},
	}
}

func start(t *testing.T, top Topology, run Run, tests ...string) *Bed {
	t.Helper()
	fixtures := make([]Fixture, len(tests))
	for i, id := range tests {
		fixtures[i] = fixture(id)
	}
	if run.Retries == 0 {
		run.Retries = 12
	}
	bed, err := Start(top, run, fixtures...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	return bed
}

var lightChaos = netsim.ChaosConfig{DropRate: 0.05, FaultRate: 0.05}

// TestBedCompressesEachVersionOnce: two fixtures whose sites are built
// apart but from the same bytes share the bed's blob store, so the second
// fixture's versions come from the store's memo and are not compressed
// again.
func TestBedCompressesEachVersionOnce(t *testing.T) {
	bed := start(t, Topology{}, Run{}, "first", "second")
	if n := bed.Blobs.Stats().Reused; n != 2 {
		t.Errorf("%d versions reused, want 2 (the second fixture's)", n)
	}
}

// TestBedRePreparesInPlace: preparing a test id again with fewer versions
// leaves every shard with the new spine's pages alone, and the blob store
// with the new spine's folders alone.
func TestBedRePreparesInPlace(t *testing.T) {
	bed := start(t, Topology{Shards: 2}, Run{})
	f := fixture("again")
	f.Test.Webpages = append(f.Test.Webpages, params.Webpage{WebPath: "c", WebPageLoad: params.PageLoadSpec{UniformMillis: 100}, WebMainFile: "index.html"})
	f.Test.WebpageNum = 3
	f.Sites["c"] = webgen.WikiArticle(webgen.WikiConfig{Seed: 1, Sections: 1, ParagraphsPerSection: 1, FontSizePt: 16})
	if _, err := bed.Prepare(f.Test, f.Sites, nil); err != nil {
		t.Fatal(err)
	}
	f.Test.Webpages, f.Test.WebpageNum = f.Test.Webpages[:2], 2
	prep, err := bed.Prepare(f.Test, f.Sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	folders := map[string]bool{}
	for _, p := range prep.Pages {
		folders[p.ID] = true
	}
	for i, db := range bed.Stores() {
		loaded, err := aggregator.LoadPrepared(db, "again")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(loaded.Pages) != len(prep.Pages) {
			t.Errorf("shard %d holds %d pages, want %d", i, len(loaded.Pages), len(prep.Pages))
		}
	}
	keys, err := bed.Blobs.List("again/")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if page := strings.Split(key, "/")[1]; !folders[page] {
			t.Errorf("blob %s belongs to no page of the new spine", key)
		}
	}
	if len(keys) != 3*len(prep.Pages) { // index + left + right
		t.Errorf("%d blobs under again/, want %d: %v", len(keys), 3*len(prep.Pages), keys)
	}
}

// TestEveryTopologyPassesItsAudit drives a small crowd through each shape
// the bed can take — with a kill where there is a standby to promote — and
// holds it to the standard audit.
func TestEveryTopologyPassesItsAudit(t *testing.T) {
	cases := []struct {
		name  string
		top   Topology
		tests []string
		kill  bool
		want  []string
	}{
		{"memory node", Topology{}, []string{"t"}, false, []string{"acked-loss audit: all 6", "oracle: t"}},
		{"engine on", Topology{EarlyStopAlpha: 0.05}, []string{"t"}, false, []string{"oracle: t"}},
		{"directory node", Topology{Store: Dir}, []string{"t"}, false, []string{"oracle: t"}},
		{"guarded node on a fault disk", Topology{Store: FaultDir, Guard: &guard.Config{MaxInflight: 8}}, []string{"t"}, false, []string{"oracle: t"}},
		{"pair, primary killed", Topology{Replicated: true, Store: Dir}, []string{"t"}, true,
			[]string{"fault: kill shard 0", "fencing: shard 0 zombie (epoch 1)", "replication shard 0"}},
		{"two plain shards", Topology{Shards: 2}, []string{"t", "u"}, false, []string{"router:", "oracle: t", "oracle: u", "over 2 store(s)"}},
		{"two pairs, a home shard killed", Topology{Shards: 2, Replicated: true, Store: Dir}, []string{"t", "u"}, true,
			[]string{"router:", "fencing: shard", "oracle: t", "oracle: u"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bed := start(t, tc.top, Run{Seed: 7, Chaos: lightChaos, PollEvery: 2}, tc.tests...)
			var crowds []Crowd
			for _, id := range tc.tests {
				crowds = append(crowds, Crowd{Test: id, Workers: 6, Trusted: true, Concurrency: 3})
			}
			var fault func()
			var killErr error
			if tc.kill {
				victim, homed := bed.HomeVictim(tc.tests...)
				if len(homed) == 0 {
					t.Fatalf("victim shard %d is no test's home", victim)
				}
				fault = func() { killErr = bed.KillAndPromote(victim) }
			}
			reports, err := bed.Drive(crowds, 2, fault)
			if err != nil || killErr != nil {
				t.Fatalf("drive: %v; kill: %v", err, killErr)
			}
			var out strings.Builder
			bed.Report(&out)
			if err := bed.Audit(&out); err != nil {
				t.Fatalf("audit: %v\n%s", err, out.String())
			}
			for _, r := range reports {
				if r.Completed+r.Concluded != 6 {
					t.Errorf("crowd report %+v, want 6 landed", r)
				}
			}
			if bed.checked == 0 {
				t.Errorf("no mid-run poll was held to read-your-acks (%d polls)", bed.polls)
			}
			for _, want := range append(tc.want, "results polls:", "chaos:", "server statuses:") {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestAuditCatches breaks a finished, passing run one way at a time and
// expects the standard audit to name the breakage.
func TestAuditCatches(t *testing.T) {
	drive := func(t *testing.T, top Topology) *Bed {
		bed := start(t, top, Run{Seed: 3}, "t")
		if _, err := bed.Drive([]Crowd{{Test: "t", Workers: 4, Trusted: true}}, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := bed.Audit(io.Discard); err != nil {
			t.Fatalf("the unbroken run fails its audit: %v", err)
		}
		return bed
	}
	expect := func(t *testing.T, bed *Bed, want string) {
		t.Helper()
		if err := bed.Audit(io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Audit = %v, want an error containing %q", err, want)
		}
	}
	t.Run("an acknowledged session missing from its shard", func(t *testing.T) {
		bed := drive(t, Topology{Shards: 2})
		worker := bed.ackedWorkers("t")[0]
		owner := bed.router.Router.Ring().Owner(shard.SessionKey("t", worker))
		if err := bed.Node(owner).Serving().DB.Collection(aggregator.ResponsesCollection).Delete("t/" + worker); err != nil {
			t.Fatal(err)
		}
		expect(t, bed, "ACKED LOSS: t worker "+worker)
	})
	t.Run("a status outside the matrix", func(t *testing.T) {
		bed := drive(t, Topology{})
		resp, err := bed.Client.Get(bed.URLs[0] + "/api/tests/no-such-test")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		expect(t, bed, "404×1")
		if err := bed.Audit(io.Discard, http.StatusNotFound); err != nil {
			t.Errorf("a scenario that allows 404 still fails: %v", err)
		}
	})
	t.Run("a lost worker", func(t *testing.T) {
		bed := drive(t, Topology{})
		bed.crowds[0].report.Failed = 1
		expect(t, bed, "1 of 4 workers failed")
	})
	t.Run("an answer that forgot an acknowledged session", func(t *testing.T) {
		bed := drive(t, Topology{})
		bed.Run.PollEvery = 1
		bed.acked("t", "acked-but-never-stored", 0)
		expect(t, bed, "READ-YOUR-ACKS: 5 sessions of t")
	})
	// A tenant a scenario adds mid-run with Prepare, as a campaign does,
	// is held to the same per-test gates by AuditTest.
	tenant := func(t *testing.T) *Bed {
		bed := drive(t, Topology{Shards: 2})
		f := fixture("m")
		if _, err := bed.Prepare(f.Test, f.Sites, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := bed.Drive([]Crowd{{Test: "m", Workers: 4, Trusted: true}}, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := bed.AuditTest("m"); err != nil {
			t.Fatalf("the unbroken tenant fails its audit: %v", err)
		}
		return bed
	}
	// stored finds one of the tenant's acknowledged sessions: its worker,
	// first by name, and the owning shard's responses.
	stored := func(bed *Bed) (string, *store.Collection) {
		workers := bed.ackedWorkers("m")
		slices.Sort(workers)
		owner := bed.router.Router.Ring().Owner(shard.SessionKey("m", workers[0]))
		return workers[0], bed.Stores()[owner].Collection(aggregator.ResponsesCollection)
	}
	expectTest := func(t *testing.T, bed *Bed, want string) {
		t.Helper()
		if _, _, err := bed.AuditTest("m"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("AuditTest = %v, want an error containing %q", err, want)
		}
	}
	t.Run("a mid-run tenant's acknowledged session missing", func(t *testing.T) {
		bed := tenant(t)
		worker, responses := stored(bed)
		if err := responses.Delete("m/" + worker); err != nil {
			t.Fatal(err)
		}
		expectTest(t, bed, "ACKED LOSS: m worker "+worker)
	})
	t.Run("a mid-run tenant's stored session rewritten", func(t *testing.T) {
		// The session's body now names a worker its document id does not —
		// no upload can store that. The served fold keeps its workers in
		// name order, the oracle in document order, so the
		// quality-controlled answers part.
		bed := tenant(t)
		worker, responses := stored(bed)
		doc, err := responses.Get("m/" + worker)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := doc["session"].(string)
		doc["session"] = strings.ReplaceAll(body, `"worker_id":"`+worker+`"`, `"worker_id":"zz-`+worker+`"`)
		if _, err := responses.Insert(doc); err != nil {
			t.Fatal(err)
		}
		expectTest(t, bed, "ORACLE DIVERGENCE m (quality=true)")
	})
	t.Run("a test the oracle cannot find", func(t *testing.T) {
		bed := drive(t, Topology{})
		if _, err := bed.oracle("never-prepared", false); err == nil {
			t.Error("the oracle concluded a test no shard holds")
		}
	})
}

// TestHomeVictimFollowsTheSeed: the victim is always some test's home
// shard, is a function of the seed alone, and is not always the same shard.
func TestHomeVictimFollowsTheSeed(t *testing.T) {
	tests := []string{"t", "u", "v", "w"}
	seen := make(map[int]bool)
	for seed := int64(1); seed <= 12; seed++ {
		bed := start(t, Topology{Shards: 3}, Run{Seed: seed}, tests...)
		victim, homed := bed.HomeVictim(tests...)
		again, _ := bed.HomeVictim(tests...)
		if victim != again || len(homed) == 0 {
			t.Fatalf("seed %d: victim %d then %d, homed %v", seed, victim, again, homed)
		}
		ring := bed.router.Router.Ring()
		for _, id := range homed {
			if ring.Owner(shard.TestKey(id)) != victim {
				t.Errorf("seed %d: %s is not homed on victim %d", seed, id, victim)
			}
		}
		seen[victim] = true
		bed.Close()
	}
	if len(seen) < 2 {
		t.Errorf("12 seeds all chose the same victim: %v", seen)
	}
}

func TestStartAndKillRejectWhatCannotWork(t *testing.T) {
	if _, err := Start(Topology{Replicated: true}, Run{}); err == nil {
		t.Error("a replicated memory topology started")
	}
	bed := start(t, Topology{}, Run{}, "t")
	if err := bed.KillAndPromote(0); err == nil {
		t.Error("a node without a standby was promoted")
	}
	if err := bed.Restart(0); err == nil {
		t.Error("a memory node was restarted")
	}
	if bed.link(workerLink, 0, 0) != &bed.net || bed.link(replLink, 0, 0) != &bed.net {
		t.Error("a clean network handed out a chaos transport")
	}
}
