package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
)

// uploadOne posts one session and returns the recorder.
func uploadOne(t *testing.T, srv *Server, prep *aggregator.Prepared, worker string, choice questionnaire.Choice) *recorderWrap {
	t.Helper()
	up := sampleUpload(prep, worker, choice)
	payload, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	return &recorderWrap{rec.Code, rec.Header().Get(ConcludedHeader), rec.Body.String()}
}

type recorderWrap struct {
	code      int
	concluded string
	body      string
}

// The prepTest fixture has one real page and one question: a single
// evidence stream at alpha=0.05 decides on the 8th unanimous vote
// (E_8 = 2^8/9 >= 20). Uploads after the decision must be acknowledged
// 200 + X-Kscope-Concluded without being stored, and results must carry
// the decision metadata.
func TestEarlyStopConcludesUploads(t *testing.T) {
	srv, prep := prepTest(t, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
	for i := 0; i < 8; i++ {
		r := uploadOne(t, srv, prep, workerName(i), questionnaire.ChoiceLeft)
		if r.code != http.StatusCreated {
			t.Fatalf("upload %d status = %d (%s)", i, r.code, r.body)
		}
		if r.concluded != "" {
			t.Fatalf("upload %d already concluded", i)
		}
	}
	// 9th upload: concluded, not stored.
	r := uploadOne(t, srv, prep, "straggler", questionnaire.ChoiceRight)
	if r.code != http.StatusOK || r.concluded != "1" {
		t.Fatalf("post-decision upload = %d, header %q (%s)", r.code, r.concluded, r.body)
	}

	var res Results
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("results status = %d", rec.Code)
	}
	if res.Workers != 8 {
		t.Fatalf("straggler was stored: workers = %d", res.Workers)
	}
	if !res.Concluded || res.Decision == nil {
		t.Fatalf("results carry no decision: %+v", res)
	}
	d := res.Decision
	if d.Winner != questionnaire.ChoiceLeft || d.NUsed != 8 || d.Sessions != 8 || d.Streams != 1 {
		t.Fatalf("decision = %+v", d)
	}
	if d.PValueBound > 0.05 {
		t.Fatalf("decision p bound %v > alpha", d.PValueBound)
	}

	// The batch endpoint shares the concluded semantics.
	up := sampleUpload(prep, "batch-straggler", questionnaire.ChoiceLeft)
	batch, _ := json.Marshal([]SessionUpload{up})
	recB := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions:batch", batch, nil)
	if recB.Code != http.StatusOK || recB.Header().Get(ConcludedHeader) != "1" {
		t.Fatalf("batch post-decision = %d, header %q", recB.Code, recB.Header().Get(ConcludedHeader))
	}

	// Deleting the test purges the latched decision.
	recD := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, nil)
	if recD.Code != http.StatusOK {
		t.Fatalf("delete status = %d", recD.Code)
	}
	if srv.folds.decision("srv-test") != nil {
		t.Fatal("decision survived test deletion")
	}
}

func workerName(i int) string {
	return "worker-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// Balanced evidence must never conclude, and an undecided test's results
// payload must be byte-identical to a server without the engine.
func TestEarlyStopUndecidedByteIdentical(t *testing.T) {
	plain, prepPlain := prepTest(t)
	early, prepEarly := prepTest(t, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))

	for i := 0; i < 30; i++ {
		choice := questionnaire.ChoiceLeft
		if i%2 == 1 {
			choice = questionnaire.ChoiceRight
		}
		if r := uploadOne(t, plain, prepPlain, workerName(i), choice); r.code != http.StatusCreated {
			t.Fatalf("plain upload %d = %d", i, r.code)
		}
		r := uploadOne(t, early, prepEarly, workerName(i), choice)
		if r.code != http.StatusCreated {
			t.Fatalf("early upload %d = %d (%s)", i, r.code, r.body)
		}
		if r.concluded != "" {
			t.Fatalf("balanced stream concluded at %d", i)
		}
	}
	for _, path := range []string{
		"/api/tests/srv-test/results",
		"/api/tests/srv-test/results?quality=1",
	} {
		recP := doJSON(t, plain, http.MethodGet, path, nil, nil)
		recE := doJSON(t, early, http.MethodGet, path, nil, nil)
		if recP.Code != http.StatusOK || recE.Code != http.StatusOK {
			t.Fatalf("%s: %d vs %d", path, recP.Code, recE.Code)
		}
		if recP.Body.String() != recE.Body.String() {
			t.Fatalf("%s: undecided results diverge:\n%s\nvs\n%s", path, recP.Body.String(), recE.Body.String())
		}
	}
}

// Differential honesty check: for every seeded campaign the engine
// declares decided, the fixed-n two-proportion test on the same
// accumulator tallies must agree on the winner direction.
func TestEarlyStopDecisionAgreesWithFixedN(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		pLeft float64
	}{
		{1, 0.9}, {2, 0.85}, {3, 0.8}, {4, 0.15}, {5, 0.1},
	} {
		srv, prep := prepTest(t, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
		rng := rand.New(rand.NewSource(tc.seed))
		decided := false
		for i := 0; i < 120 && !decided; i++ {
			choice := questionnaire.ChoiceRight
			if rng.Float64() < tc.pLeft {
				choice = questionnaire.ChoiceLeft
			}
			r := uploadOne(t, srv, prep, workerName(i), choice)
			switch r.code {
			case http.StatusCreated:
			case http.StatusOK:
				decided = true
			default:
				t.Fatalf("seed %d upload %d = %d (%s)", tc.seed, i, r.code, r.body)
			}
		}
		if !decided {
			t.Fatalf("seed %d (pLeft=%.2f): never decided in 120 sessions", tc.seed, tc.pLeft)
		}
		var res Results
		if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res); rec.Code != http.StatusOK {
			t.Fatalf("results = %d", rec.Code)
		}
		if !res.Concluded || res.Decision == nil {
			t.Fatalf("seed %d: decided test has no decision in results", tc.seed)
		}
		var tally *questionnaire.Tally
		for i := range res.Pages {
			if res.Pages[i].Kind == aggregator.KindReal && res.Pages[i].PageID == res.Decision.PageID {
				tally = &res.Pages[i].Tally
			}
		}
		if tally == nil {
			t.Fatalf("seed %d: deciding page %q missing from results", tc.seed, res.Decision.PageID)
		}
		decisive := tally.Left + tally.Right
		fixed, err := stats.TwoProportionTest(tally.Left, decisive, tally.Right, decisive)
		if err != nil {
			t.Fatalf("seed %d: fixed-n test: %v", tc.seed, err)
		}
		wantLeft := fixed.P1 > fixed.P2
		gotLeft := res.Decision.Winner == questionnaire.ChoiceLeft
		if wantLeft != gotLeft {
			t.Fatalf("seed %d: engine winner %q disagrees with fixed-n direction (tally %d/%d, z=%.2f)",
				tc.seed, res.Decision.Winner, tally.Left, tally.Right, fixed.Z)
		}
	}
}

// A latched decision survives engine-state invalidation, and a fresh
// server over the same storage re-derives the decision by replaying the
// stored sessions on its first fold.
func TestEarlyStopDecisionDurability(t *testing.T) {
	srv, prep := prepTest(t, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
	// Worker names chosen to sort before the post-restart stragglers:
	// the rebuild replays stored sessions in document-id order, so the
	// replayed path must match the arrival path for the latch to
	// re-derive identically.
	for i := 0; i < 8; i++ {
		if r := uploadOne(t, srv, prep, "a-"+workerName(i), questionnaire.ChoiceLeft); r.code != http.StatusCreated {
			t.Fatalf("upload %d = %d", i, r.code)
		}
	}
	if srv.folds.decision("srv-test") == nil {
		t.Fatal("undecided after 8 unanimous sessions")
	}
	// Invalidate the engine state; the latch must hold.
	srv.folds.drop("srv-test")
	if r := uploadOne(t, srv, prep, "late", questionnaire.ChoiceRight); r.code != http.StatusOK || r.concluded != "1" {
		t.Fatalf("post-invalidation upload = %d, header %q", r.code, r.concluded)
	}

	// A restarted server (fresh tracker, same storage) has no latched
	// decision until its first fold replays the stored evidence: the first
	// post-restart upload is stored, the rebuild replays the history and
	// latches, and the next upload is rejected as concluded.
	srv2, err := New(srv.db, srv.blobs, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if r := uploadOne(t, srv2, prep, "z-restart", questionnaire.ChoiceRight); r.code != http.StatusCreated {
		t.Fatalf("first post-restart upload = %d (%s)", r.code, r.body)
	}
	d := srv2.folds.decision("srv-test")
	if d == nil {
		t.Fatal("restart rebuild did not re-derive the decision")
	}
	if d.Winner != questionnaire.ChoiceLeft {
		t.Fatalf("re-derived winner = %q", d.Winner)
	}
	if r := uploadOne(t, srv2, prep, "z-restart-2", questionnaire.ChoiceLeft); r.code != http.StatusOK || r.concluded != "1" {
		t.Fatalf("second post-restart upload = %d, header %q", r.code, r.concluded)
	}
}
