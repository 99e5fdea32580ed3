package shard

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys generates a seeded, deterministic key population shaped like
// production traffic: session keys for a handful of tests and a few
// thousand workers each.
func ringKeys(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = SessionKey(
			fmt.Sprintf("test-%d", rng.Intn(16)),
			fmt.Sprintf("w%08x", rng.Uint32()))
	}
	return keys
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://shard-%d:8780", i)
	}
	return names
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty shard list should fail")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty shard name should fail")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Error("duplicate shard name should fail")
	}
	r, err := NewRing([]string{"solo"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.shards[r.Owner("anything")]; got != "solo" {
		t.Errorf("single-shard ring owner = %q", got)
	}
}

// TestRingDeterministic pins the restart contract: the same shard names
// produce the same ownership for every key, regardless of the order the
// names were listed in.
func TestRingDeterministic(t *testing.T) {
	names := shardNames(5)
	a, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	permuted := []string{names[3], names[0], names[4], names[2], names[1]}
	c, err := NewRing(permuted, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range ringKeys(11, 5000) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
		if a.shards[a.Owner(key)] != c.shards[c.Owner(key)] {
			t.Fatalf("ownership of %q depends on shard list order: %q vs %q",
				key, a.shards[a.Owner(key)], c.shards[c.Owner(key)])
		}
	}
}

// TestRingBalance is the ±15% balance property: with the default virtual
// node count, every shard's share of a large seeded key population stays
// within 15% of the uniform share.
func TestRingBalance(t *testing.T) {
	for _, shardCount := range []int{2, 3, 5, 8} {
		ring, err := NewRing(shardNames(shardCount), 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := ringKeys(42, 40_000)
		counts := make([]int, shardCount)
		for _, key := range keys {
			counts[ring.Owner(key)]++
		}
		mean := float64(len(keys)) / float64(shardCount)
		for i, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < -0.15 || dev > 0.15 {
				t.Errorf("%d shards: shard %d holds %d keys, %.1f%% off the uniform %0.f",
					shardCount, i, c, dev*100, mean)
			}
		}
	}
}

// TestRingMinimalRemapOnAdd is the consistent-hashing property that makes
// future rebalancing proportional: when a shard joins, the only keys that
// change owner are those moving TO the new shard, and they are roughly a
// 1/N share.
func TestRingMinimalRemapOnAdd(t *testing.T) {
	names := shardNames(4)
	before, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append([]string(nil), names...), "http://shard-new:8780")
	after, err := NewRing(grown, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(7, 40_000)
	moved := 0
	for _, key := range keys {
		oldName, newName := before.shards[before.Owner(key)], after.shards[after.Owner(key)]
		if oldName == newName {
			continue
		}
		moved++
		if newName != "http://shard-new:8780" {
			t.Fatalf("key %q moved %q -> %q, not to the new shard", key, oldName, newName)
		}
	}
	frac := float64(moved) / float64(len(keys))
	want := 1.0 / float64(len(grown))
	if frac < want*0.7 || frac > want*1.3 {
		t.Errorf("adding a 5th shard moved %.1f%% of keys, want ~%.1f%% (±30%% rel)", frac*100, want*100)
	}
}

// TestRingMinimalRemapOnRemove is the inverse property: when a shard
// leaves, only ITS keys move (to survivors); everyone else's stay put.
func TestRingMinimalRemapOnRemove(t *testing.T) {
	names := shardNames(5)
	before, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := names[2]
	shrunk := append(append([]string(nil), names[:2]...), names[3:]...)
	after, err := NewRing(shrunk, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(13, 40_000)
	moved, owned := 0, 0
	for _, key := range keys {
		oldName := before.shards[before.Owner(key)]
		if oldName == removed {
			owned++
		}
		newName := after.shards[after.Owner(key)]
		if oldName == newName {
			continue
		}
		moved++
		if oldName != removed {
			t.Fatalf("key %q moved %q -> %q though its shard never left", key, oldName, newName)
		}
	}
	if moved != owned {
		t.Errorf("removed shard owned %d keys but %d moved", owned, moved)
	}
	frac := float64(moved) / float64(len(keys))
	want := 1.0 / float64(len(names))
	if frac < want*0.7 || frac > want*1.3 {
		t.Errorf("removing a shard moved %.1f%% of keys, want ~%.1f%%", frac*100, want*100)
	}
}

func TestRingKeys(t *testing.T) {
	if got := SessionKey("t1", "w1"); got != "t1/w1" {
		t.Errorf("SessionKey = %q", got)
	}
	if got := TestKey("t1"); got != "t1" {
		t.Errorf("TestKey = %q", got)
	}
	ring, err := NewRing([]string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ring.Shards()); got != 2 {
		t.Errorf("Shards() len = %d", got)
	}
	// A worker's upload key equals its stored document id, so the 409
	// duplicate of a retried upload lands on the same shard.
	if ring.Owner(SessionKey("t", "w")) != ring.Owner("t/w") {
		t.Error("session key must match the store's document id routing")
	}
}
