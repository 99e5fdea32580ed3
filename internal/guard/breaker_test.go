package guard

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/store"
)

func TestBreakerLifecycleDeterministic(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(3, time.Second, 2, clk.now)

	// Closed: failures below the threshold do not trip.
	for i := 0; i < 2; i++ {
		done, ok := b.Allow()
		if !ok {
			t.Fatal("closed breaker must allow")
		}
		done(Failure)
	}
	if b.State() != StateClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	// A success resets the consecutive count.
	done, _ := b.Allow()
	done(Success)
	for i := 0; i < 2; i++ {
		done, _ := b.Allow()
		done(Failure)
	}
	if b.State() != StateClosed {
		t.Fatal("success must reset the consecutive-failure count")
	}
	// The third consecutive failure trips it.
	done, _ = b.Allow()
	done(Failure)
	if b.State() != StateOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Errorf("trips = %d, want 1", b.Trips())
	}

	// Open: refused until the cooldown elapses.
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker within cooldown must refuse")
	}
	clk.advance(time.Second)

	// Half-open: exactly one probe at a time.
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("cooldown elapsed: breaker must half-open and allow a probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("second concurrent probe must be refused")
	}
	// A failed probe re-opens.
	probe(Failure)
	if b.State() != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	clk.advance(time.Second)

	// Two successful probes (probes=2) close it.
	probe, _ = b.Allow()
	probe(Success)
	if b.State() != StateHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want still half-open", b.State())
	}
	probe, ok = b.Allow()
	if !ok {
		t.Fatal("next sequential probe must be allowed")
	}
	probe(Success)
	if b.State() != StateClosed {
		t.Fatalf("state after 2/2 probe successes = %v, want closed", b.State())
	}
}

func TestBreakerCanceledOutcomeIsNeutral(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(1, time.Second, 1, clk.now)
	done, _ := b.Allow()
	done(Canceled)
	if b.State() != StateClosed {
		t.Error("canceled outcome must not trip a closed breaker")
	}
	// Trip, cool down, half-open, cancel the probe: the probe slot frees
	// without a state change, and the next probe may proceed.
	done, _ = b.Allow()
	done(Failure)
	clk.advance(time.Second)
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("probe expected")
	}
	probe(Canceled)
	if b.State() != StateHalfOpen {
		t.Errorf("state after canceled probe = %v, want half-open", b.State())
	}
	probe, ok = b.Allow()
	if !ok {
		t.Fatal("probe slot must free after a canceled probe")
	}
	probe(Success)
	if b.State() != StateClosed {
		t.Errorf("state = %v, want closed", b.State())
	}
}

// TestBreakerPropertyUnderFaultFSBursts is the state-machine property test:
// randomized bursts of injected store faults (ENOSPC, torn writes) drive
// concurrent inserts through the breaker, and every observed transition
// must be one of the four legal edges — closed→open, open→half-open,
// half-open→open, half-open→closed. After the last burst the disk
// recovers and the breaker must close again.
func TestBreakerPropertyUnderFaultFSBursts(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ffs := store.NewFaultFS()
			db, err := store.Open(filepath.Join(t.TempDir(), "db"), store.WithFileSystem(ffs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			coll := db.Collection("breaker_prop")

			clk := &fakeClock{t: time.Unix(0, 0)}
			b := NewBreaker(3, time.Millisecond, 2, clk.now)
			var transMu sync.Mutex
			var transitions [][2]State
			b.OnStateChange = func(from, to State) {
				transMu.Lock()
				transitions = append(transitions, [2]State{from, to})
				transMu.Unlock()
			}

			rng := rand.New(rand.NewSource(seed))
			type burst struct {
				budget int64
				torn   bool
			}
			bursts := make([]burst, 6+rng.Intn(5))
			for i := range bursts {
				bursts[i] = burst{budget: rng.Int63n(600), torn: rng.Intn(2) == 0}
			}

			var seq int64
			var seqMu sync.Mutex
			nextID := func() string {
				seqMu.Lock()
				defer seqMu.Unlock()
				seq++
				return fmt.Sprintf("doc-%d", seq)
			}
			insertOnce := func() {
				done, ok := b.Allow()
				if !ok {
					// Open (or probe in flight): the cooldown elapses
					// before this worker's next try.
					clk.advance(time.Millisecond)
					return
				}
				_, err := coll.Insert(store.Document{store.IDField: nextID(), "v": 1})
				switch {
				case err == nil:
					done(Success)
				case errors.Is(err, store.ErrDuplicateID):
					done(Success)
				default:
					done(Failure)
				}
			}

			const workers = 4
			for _, burst := range bursts {
				ffs.FailAppendsAfter(burst.budget, nil, burst.torn)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 25; i++ {
							insertOnce()
						}
					}()
				}
				wg.Wait()
				ffs.Reset()
				// A short healthy phase between bursts.
				for i := 0; i < 10; i++ {
					insertOnce()
				}
			}

			// Recovery: with the disk healthy, the breaker must close within
			// a refusal, a cooldown and its two probes.
			ffs.Reset()
			for i := 0; b.State() != StateClosed; i++ {
				if i == 3 {
					t.Fatalf("breaker stuck %v after %d healthy tries", b.State(), i)
				}
				insertOnce()
			}

			transMu.Lock()
			defer transMu.Unlock()
			legal := map[[2]State]bool{
				{StateClosed, StateOpen}:     true,
				{StateOpen, StateHalfOpen}:   true,
				{StateHalfOpen, StateOpen}:   true,
				{StateHalfOpen, StateClosed}: true,
			}
			for i, tr := range transitions {
				if !legal[tr] {
					t.Errorf("transition %d: illegal %v -> %v", i, tr[0], tr[1])
				}
			}
			// Transitions must chain: each edge starts where the previous
			// one ended (the observer serializes under the breaker lock's
			// release order per transition).
			for i := 1; i < len(transitions); i++ {
				if transitions[i][0] != transitions[i-1][1] {
					t.Errorf("transition %d: starts at %v but previous ended at %v",
						i, transitions[i][0], transitions[i-1][1])
				}
			}
			if len(transitions) == 0 {
				t.Error("no transitions observed — the fault bursts never tripped the breaker")
			}
			if transitions[len(transitions)-1][1] != StateClosed {
				t.Errorf("final transition ends at %v, want closed", transitions[len(transitions)-1][1])
			}
		})
	}
}
