package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
)

// auditEvery is the stride of the deep checks: results and page bytes are
// compared on every 16th test, session counts on every test.
const auditEvery = 16

// gauge reads one series from a registry's text exposition (the registry
// has no read API for gauges).
func gauge(reg *obs.Registry, series string) (float64, bool) {
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// audit checks, over a quiesced topology, that what the testers were told
// is what the deployment holds and serves. c is an idle tester on the
// deployment's front door.
func audit(tp *topology, sc *script, acked map[string]int, c *tester) error {
	tests := sc.tests()

	// Acknowledged == stored, per test (fleet: summed over the shards).
	for _, t := range tests {
		stored := 0
		for _, n := range tp.nodes {
			stored += n.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", t.ID)
		}
		if stored != acked[t.ID] || stored != sessionsPerTest {
			return fmt.Errorf("audit %s: %d sessions acknowledged, %d stored, want %d",
				t.ID, acked[t.ID], stored, sessionsPerTest)
		}
	}

	for i := 0; i < len(tests); i += auditEvery {
		t := tests[i]
		if err := auditResults(tp, t, c); err != nil {
			return err
		}
		if err := auditPages(tp, t, c); err != nil {
			return err
		}
	}

	// The balanced script must never let the sequential engine decide.
	for _, n := range tp.nodes {
		decided, ok := gauge(n.reg, "kscope_earlystop_decided_total")
		if ok != tp.earlyOn {
			return fmt.Errorf("audit: early stopping wired=%v, want %v", ok, tp.earlyOn)
		}
		if decided != 0 {
			return fmt.Errorf("audit: %v tests were decided early; the script must stay balanced", decided)
		}
	}
	if tp.prim != nil {
		if frames, _ := tp.prim.Lag(); frames != 0 {
			return fmt.Errorf("audit: follower trails the primary by %d frames", frames)
		}
	}
	if c.failed > 0 {
		return fmt.Errorf("audit: %d requests failed; first: %w", c.failed, c.firstErr)
	}
	return nil
}

// auditResults compares the served raw and quality-controlled results of
// one test with a from-scratch conclusion over what is stored.
func auditResults(tp *topology, t *scriptTest, c *tester) error {
	for _, qc := range []bool{false, true} {
		body := c.results(t, routeResultsRaw, qc)
		if body == nil {
			return fmt.Errorf("audit %s: results (quality=%v) not served: %v", t.ID, qc, c.firstErr)
		}
		var got server.Results
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("audit %s: decoding results: %w", t.ID, err)
		}
		var want *server.Results
		var err error
		if tp.router == nil {
			want, err = tp.nodes[0].srv.ConcludeScratch(t.ID, qc)
		} else {
			want, err = concludeUnion(tp, t, qc, c)
		}
		if err != nil {
			return fmt.Errorf("audit %s: oracle: %w", t.ID, err)
		}
		if !reflect.DeepEqual(&got, want) {
			return fmt.Errorf("audit %s: served results (quality=%v) diverge from the oracle:\nserved %+v\noracle %+v",
				t.ID, qc, &got, want)
		}
	}
	return nil
}

// concludeUnion is the fleet's oracle: server.ConcludeUploads over the
// union of every shard's stored sessions, in document-id order, against
// the test info the router serves.
func concludeUnion(tp *topology, t *scriptTest, qc bool, c *tester) (*server.Results, error) {
	var uploads []server.SessionUpload
	for _, n := range tp.nodes {
		for _, doc := range n.db.Collection(aggregator.ResponsesCollection).FindEq("test_id", t.ID) {
			raw, _ := doc["session"].(string)
			var u server.SessionUpload
			if err := json.Unmarshal([]byte(raw), &u); err != nil {
				return nil, fmt.Errorf("corrupt session %s: %w", doc.ID(), err)
			}
			uploads = append(uploads, u)
		}
	}
	sort.Slice(uploads, func(a, b int) bool { return uploads[a].WorkerID < uploads[b].WorkerID })
	resp, body, ok := c.do(routeInfo, "GET", c.testURL(t), nil, nil)
	if !ok || resp.StatusCode != 200 {
		return nil, fmt.Errorf("test info not served: %v", c.firstErr)
	}
	var info server.TestInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	return server.ConcludeUploads(&info, uploads, qc)
}

// auditPages re-fetches every page file of one test without validators
// and compares the bytes with the blob store's.
func auditPages(tp *topology, t *scriptTest, c *tester) error {
	for _, pageID := range []string{realPage, controlPage} {
		for _, file := range pageFiles {
			key := t.ID + "/" + pageID + "/" + file
			want, err := tp.nodes[0].blobs.Get(key)
			if err != nil {
				return fmt.Errorf("audit: blob %s: %w", key, err)
			}
			url := c.testURL(t) + "/pages/" + pageID + "/" + file
			resp, got, ok := c.do(routePage, "GET", url, nil, nil)
			if !ok {
				return fmt.Errorf("audit: GET %s: %w", url, c.firstErr)
			}
			if resp.StatusCode != 200 || !bytes.Equal(got, want) {
				return fmt.Errorf("audit: GET %s: status %d, %d bytes; blob store holds %d bytes",
					url, resp.StatusCode, len(got), len(want))
			}
		}
	}
	return nil
}

// auditReopen checks, after the topology is closed, that the durable
// directories replay to the same per-test counts the testers were told.
func auditReopen(tp *topology, sc *script, acked map[string]int) error {
	var dirs []string
	for _, n := range tp.nodes {
		if n.dir != "" {
			dirs = append(dirs, filepath.Join(n.dir, "db"))
		}
	}
	if tp.followerDir != "" {
		dirs = append(dirs, tp.followerDir)
	}
	for _, dir := range dirs {
		db, err := store.Open(dir)
		if err != nil {
			return fmt.Errorf("audit: reopening %s: %w", dir, err)
		}
		responses := db.Collection(aggregator.ResponsesCollection)
		responses.EnsureIndex("test_id")
		for _, t := range sc.tests() {
			if n := responses.CountEq("test_id", t.ID); n != acked[t.ID] {
				db.Close()
				return fmt.Errorf("audit: %s replays %d sessions of %s, %d were acknowledged", dir, n, t.ID, acked[t.ID])
			}
		}
		db.Close()
	}
	return nil
}
