package extension

import (
	"errors"
	"math/rand"
	"testing"
)

// TestRunnerVanishUploadsNothing pins the vanish contract: a worker whose
// abandonment fires before the first page returns ErrAbandoned and the
// server never sees a session from them.
func TestRunnerVanishUploadsNothing(t *testing.T) {
	ts, srv, _ := startServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := diligentWorker(rand.New(rand.NewSource(4)))
	w.AbandonRate = 1.0 // quits at the first opportunity, always
	runner := &Runner{Client: client, Worker: w, Answer: AnswerFontSize(), RNG: rand.New(rand.NewSource(9))}
	if _, _, err := runner.Run("ext-test"); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("err = %v, want ErrAbandoned", err)
	}
	res, err := srv.ConcludeScratch("ext-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 0 {
		t.Errorf("vanished worker left %d stored sessions, want 0", res.Workers)
	}
}
