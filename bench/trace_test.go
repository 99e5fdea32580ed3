package main

import (
	"math"
	"testing"
)

func selfOf(t *testing.T, sp *split, kind string, want float64) {
	t.Helper()
	if got := sp.Self[kind]; math.Abs(got-want) > 1e-6 {
		t.Errorf("self[%s] = %v ns, want %v", kind, got, want)
	}
}

func sumSelf(sp *split) float64 {
	sum := 0.0
	for _, v := range sp.Self {
		sum += v
	}
	return sum
}

// A replicated upload, hand-built: explicit parents where a header would
// carry them, none where the benchmark relies on time containment.
func TestSplitSerialTreeWithContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindClient, Route: "upload", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Kind: kindNode, Start: 100, End: 900},
		{ID: 3, Kind: kindWALWrite, Start: 200, End: 250}, // contained in node
		{ID: 4, Kind: kindWALSync, Start: 250, End: 400},
		{ID: 5, Kind: kindShip, Start: 400, End: 850},
		{ID: 6, Kind: kindReplRT, Start: 420, End: 840},    // contained in ship
		{ID: 7, Kind: kindFollower, Start: 500, End: 800},  // contained in repl_rt
		{ID: 8, Kind: kindFWALSync, Start: 600, End: 750},  // contained in follower
		{ID: 9, Kind: kindWALSync, Start: 2000, End: 2100}, // background: no request contains it
		{ID: 10, Kind: kindClient, Route: "page", Start: 3000, End: 3100},
	}
	splits, orphans := splitRequests(spans)
	if orphans != 1 {
		t.Errorf("orphans = %d, want 1", orphans)
	}
	if len(splits) != 2 {
		t.Fatalf("%d requests, want 2", len(splits))
	}
	up := splits[0]
	if up.Route != "upload" || up.TotalNs != 1000 {
		t.Fatalf("first request = %s/%d, want upload/1000", up.Route, up.TotalNs)
	}
	selfOf(t, up, kindClient, 200)   // 1000 - node 800
	selfOf(t, up, kindNode, 150)     // 800 - (50 + 150 + 450)
	selfOf(t, up, kindWALWrite, 50)  // leaf
	selfOf(t, up, kindWALSync, 150)  // leaf
	selfOf(t, up, kindShip, 30)      // 450 - repl_rt 420
	selfOf(t, up, kindReplRT, 120)   // 420 - follower 300
	selfOf(t, up, kindFollower, 150) // 300 - fsync 150
	selfOf(t, up, kindFWALSync, 150) // leaf
	if got := sumSelf(up); math.Abs(got-1000) > 1e-6 {
		t.Errorf("self times sum to %v, want the tester's span 1000", got)
	}
	if up.Incl[kindShip] != 450 || up.Count[kindWALSync] != 1 {
		t.Errorf("ship inclusive %d (want 450), fsync count %d (want 1)", up.Incl[kindShip], up.Count[kindWALSync])
	}
	if page := splits[1]; page.Self[kindClient] != 100 || len(page.Self) != 1 {
		t.Errorf("childless request: self %v, want client 100 only", page.Self)
	}
}

// The router fans a results poll out to three shards in parallel: an
// instant covered by k innermost spans is shared k ways, so the self
// times still add up to the tester's span.
func TestSplitParallelFanOut(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindClient, Route: "results_raw", Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindRouter, Start: 10, End: 90},
		{ID: 3, Parent: 2, Kind: kindShardRT, Start: 20, End: 60, Bytes: 7},
		{ID: 4, Parent: 2, Kind: kindShardRT, Start: 20, End: 80, Bytes: 9},
		{ID: 5, Parent: 3, Kind: kindNode, Start: 30, End: 50},
		{ID: 6, Parent: 4, Kind: kindNode, Start: 30, End: 70},
	}
	splits, orphans := splitRequests(spans)
	if orphans != 0 || len(splits) != 1 {
		t.Fatalf("orphans %d, requests %d; want 0, 1", orphans, len(splits))
	}
	sp := splits[0]
	selfOf(t, sp, kindClient, 20) // [0,10) + [90,100)
	selfOf(t, sp, kindRouter, 20) // [10,20) + [80,90)
	// shard_rt: [20,30) both (10), [50,60) rt3 shares with node6 (5),
	// [60,70) nothing (node6 alone), [70,80) rt4 alone (10).
	selfOf(t, sp, kindShardRT, 25)
	// node: [30,50) both (20), [50,60) node6 shares with rt3 (5), [60,70) node6 alone (10).
	selfOf(t, sp, kindNode, 35)
	if got := sumSelf(sp); math.Abs(got-100) > 1e-6 {
		t.Errorf("self times sum to %v, want 100", got)
	}
	if sp.Count[kindShardRT] != 2 || sp.Bytes[kindShardRT] != 16 {
		t.Errorf("shard round trips: count %d bytes %d, want 2 and 16", sp.Count[kindShardRT], sp.Bytes[kindShardRT])
	}
	rs := byRoute(splits)["results_raw"]
	if got := rs.perRequest(kindShardRT); got != 2 {
		t.Errorf("upstream calls per request = %v, want 2", got)
	}
	if got := rs.selfUsPerSpan(kindShardRT); math.Abs(got-0.0125) > 1e-12 {
		t.Errorf("hop self per span = %v us, want 0.0125", got)
	}
}

// A child that outlives its parent (the recorder runs after the reply is
// on the wire) is clipped, never counted twice.
func TestSplitClipsOverhangingChild(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindClient, Route: "page", Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindNode, Start: 40, End: 130},
	}
	splits, _ := splitRequests(spans)
	selfOf(t, splits[0], kindClient, 40)
	selfOf(t, splits[0], kindNode, 60)
}

func TestNilRouteSplitReportsZero(t *testing.T) {
	var rs *split
	if rs.selfUs(kindNode) != 0 || rs.perRequest(kindNode) != 0 || rs.selfUsPerSpan(kindNode) != 0 {
		t.Error("a route with no traffic must report 0")
	}
}
