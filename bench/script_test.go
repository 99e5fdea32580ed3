package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"sort"
	"testing"

	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/server"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := newScript(7, 2, 2, 2), newScript(7, 2, 2, 2), newScript(8, 2, 2, 2)
	if a.Hash != b.Hash {
		t.Errorf("same seed, different scripts: %s vs %s", a.Hash, b.Hash)
	}
	if a.Hash == c.Hash {
		t.Errorf("seeds 7 and 8 gave the same script %s", a.Hash)
	}
	if got, want := len(a.tests()), 1+2*(2+2); got != want {
		t.Errorf("%d tests, want %d", got, want)
	}
}

// The layer script is "the first part of the script": a shorter script
// with the same seed must be a prefix of the longer one, test by test.
func TestShorterScriptIsAPrefix(t *testing.T) {
	long, short := newScript(3, 4, 3, 2), newScript(3, 2, 1, 1)
	pairs := [][2]*scriptTest{
		{long.Warm, short.Warm},
		{long.Rounds[0].Flow[0], short.Rounds[0].Flow[0]},
		{long.Rounds[0].Flow[1], short.Rounds[0].Flow[1]},
		{long.Rounds[0].Batch[0], short.Rounds[0].Batch[0]},
	}
	for _, p := range pairs {
		l, s := p[0], p[1]
		if l.ID != s.ID || l.Left != s.Left || l.Right != s.Right {
			t.Errorf("%s/%s: identity or versions differ", l.ID, s.ID)
		}
		if len(l.Singles) != len(s.Singles) || len(l.Batches) != len(s.Batches) {
			t.Fatalf("%s: body counts differ", l.ID)
		}
		for i := range l.Singles {
			if !bytes.Equal(l.Singles[i], s.Singles[i]) {
				t.Fatalf("%s: session %d differs between the scripts", l.ID, i)
			}
		}
		for i := range l.Batches {
			if !bytes.Equal(l.Batches[i], s.Batches[i]) {
				t.Fatalf("%s: batch %d differs between the scripts", l.ID, i)
			}
		}
	}
}

func TestScriptShape(t *testing.T) {
	sc := newScript(5, 1, 1, 1)
	flow, batch := sc.Rounds[0].Flow[0], sc.Rounds[0].Batch[0]
	if len(flow.Singles) != sessionsPerTest || len(flow.Batches) != 0 {
		t.Errorf("flow test: %d singles, %d batches", len(flow.Singles), len(flow.Batches))
	}
	if len(batch.Batches) != sessionsPerTest/batchSize || len(batch.Singles) != 0 {
		t.Errorf("batch test: %d singles, %d batches", len(batch.Singles), len(batch.Batches))
	}
	if flow.Left == flow.Right {
		t.Errorf("flow test compares variant %d with itself", flow.Left)
	}
	if !sort.StringsAreSorted(flow.Workers) {
		t.Error("worker ids must ascend with the session index: document-id order is replay order")
	}
	zr, err := gzip.NewReader(bytes.NewReader(batch.Batches[1]))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []server.SessionUpload
	if err := json.Unmarshal(raw, &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != batchSize || sessions[0].WorkerID != batch.Workers[batchSize] {
		t.Errorf("second batch: %d sessions starting at %q, want %d starting at %q",
			len(sessions), sessions[0].WorkerID, batchSize, batch.Workers[batchSize])
	}
}

// foldOrder replays the test's answers through the sequential engine in
// the given session order and reports whether it ever decided.
func foldOrder(t *testing.T, order []int) bool {
	t.Helper()
	engine, err := earlystop.New(earlystop.Config{Alpha: earlyStopAlpha, Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range order {
		if engine.Fold([]earlystop.Vote{{PageID: realPage, QuestionID: "q0", Choice: choiceFor(idx)}}) != nil {
			return true
		}
	}
	return false
}

// The audit insists that no test is decided early. That holds for
// document-id order (a rebuild), for one tester, and for every way two
// closed loops — each uploading its own sessions in order — can interleave.
func TestBalancedAnswersNeverDecide(t *testing.T) {
	inOrder := make([]int, sessionsPerTest)
	for i := range inOrder {
		inOrder[i] = i
	}
	if foldOrder(t, inOrder) {
		t.Error("index order decided")
	}
	var evens, odds []int
	for i := 0; i < sessionsPerTest; i += 2 {
		evens, odds = append(evens, i), append(odds, i+1)
	}
	if foldOrder(t, append(append([]int{}, evens...), odds...)) {
		t.Error("tester 0 wholly ahead of tester 1 decided")
	}
	if foldOrder(t, append(append([]int{}, odds...), evens...)) {
		t.Error("tester 1 wholly ahead of tester 0 decided")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		var order []int
		e, o := 0, 0
		for e < len(evens) || o < len(odds) {
			if o == len(odds) || (e < len(evens) && rng.Intn(2) == 0) {
				order = append(order, evens[e])
				e++
			} else {
				order = append(order, odds[o])
				o++
			}
		}
		if foldOrder(t, order) {
			t.Fatalf("interleaving %d decided", trial)
		}
	}
}
