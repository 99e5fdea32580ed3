package main

import "testing"

// A reference session is flowSession's shape against the stand-in —
// eleven requests, none failing — its traffic stays out of the wire count,
// and its time is what own() takes off a part's wall time.
func TestReferenceSessionShapeAndAccounting(t *testing.T) {
	ref, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	c := newTester("http://127.0.0.1:1", nil) // the topology is never called
	defer c.close()
	c.refAddr = ref.addr
	c.refBody = []byte(`{"test_id":"t","worker_id":"w","responses":[]}`)

	part := runPart([]*tester{c}, 1, false, func(_ int, c *tester) {
		c.refSession()
		c.refSession()
	})
	if c.failed != 0 {
		t.Fatalf("%d reference requests failed; first: %v", c.failed, c.firstErr)
	}
	if c.attempted != 22 || len(part.lat[routeRef]) != 22 {
		t.Errorf("%d requests attempted, %d timed, want 22: two sessions of 1 info + 9 page files + 1 upload", c.attempted, len(part.lat[routeRef]))
	}
	if len(part.ref) != 2 || part.ref[0] <= 0 {
		t.Errorf("reference durations %v, want two positive ones", part.ref)
	}
	if part.wire != 0 {
		t.Errorf("reference traffic counted as %d wire bytes, want 0", part.wire)
	}
	if part.refTime <= 0 || part.refTime > part.elapsed || part.own() != part.elapsed-part.refTime {
		t.Errorf("refTime %v of elapsed %v, own %v", part.refTime, part.elapsed, part.own())
	}
}
