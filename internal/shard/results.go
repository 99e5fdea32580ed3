package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/server"
)

// fanResult is one shard's answer to a fleet-wide scatter.
type fanResult struct {
	up  *failover.Response
	err error
}

// fanOut issues the same request to every shard concurrently, each with
// the full per-shard failover/retry budget.
func (rt *Router) fanOut(ctx context.Context, method, path string, hdr http.Header, body []byte) []fanResult {
	return rt.scatter(ctx, method, path, hdr, func(int) ([]byte, bool) { return body, true })
}

// scatter is fanOut with a body per shard: bodyFor says what shard i is
// sent, or that it is sent nothing, which leaves its fanResult zero.
func (rt *Router) scatter(ctx context.Context, method, path string, hdr http.Header, bodyFor func(i int) (body []byte, send bool)) []fanResult {
	out := make([]fanResult, len(rt.shards))
	var wg sync.WaitGroup
	for i, seg := range rt.shards {
		body, send := bodyFor(i)
		if !send {
			continue
		}
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			up, err := rt.doShard(ctx, seg, method, path, hdr, body)
			out[i] = fanResult{up: up, err: err}
		}(i, seg)
	}
	wg.Wait()
	return out
}

// handleResults is the scatter/gather conclusion merge. Either way every
// shard answers from its fold state and the router merges statistics, never
// sessions, into a payload byte-identical to a single node holding all of
// them.
//
// Raw results merge shard-locally concluded tallies: the router adds the
// per-page questionnaire tallies field-wise.
//
// ?quality=1 merges server.FoldState documents. The battery's majority vote
// spans the whole crowd, so per-shard filtered results cannot be added; but
// the vote is a function of per-question counts that can, each shard has
// already applied the rules that read one session, and FoldState.Conclude —
// the kernel a node runs over its own state — judges the rest once the
// counts are whole.
//
// A shard whose primary and standby are both gone does not fail the query:
// the router serves what the surviving shards hold and marks the response
// X-Kscope-Partial: 1. Only the whole fleet being unreachable yields a 503.
func (rt *Router) handleResults(w http.ResponseWriter, r *http.Request, testID string) {
	if r.URL.Query().Get("quality") == "1" {
		rt.resultsQuality(w, r, testID)
		return
	}
	rt.resultsRaw(w, r, testID)
}

func (rt *Router) resultsRaw(w http.ResponseWriter, r *http.Request, testID string) {
	var merged *server.Results
	pageIdx := map[string]int{}
	g := rt.gather(r, "/api/tests/"+testID+"/results", func(body []byte) error {
		var res server.Results
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		if merged == nil {
			merged = &res
			for i, p := range res.Pages {
				pageIdx[p.PageID] = i
			}
			return nil
		}
		merged.Workers += res.Workers
		for _, p := range res.Pages {
			if i, ok := pageIdx[p.PageID]; ok {
				merged.Pages[i].Tally.Left += p.Tally.Left
				merged.Pages[i].Tally.Right += p.Tally.Right
				merged.Pages[i].Tally.Same += p.Tally.Same
			}
		}
		return nil
	})
	rt.finishResults(w, g, func() any { return merged })
}

func (rt *Router) resultsQuality(w http.ResponseWriter, r *http.Request, testID string) {
	var merged *server.FoldState
	g := rt.gather(r, "/api/tests/"+testID+"/fold", func(body []byte) error {
		fs, err := server.DecodeFoldState(body)
		if err != nil {
			return err
		}
		if merged == nil {
			merged = fs
			return nil
		}
		return merged.Merge(fs)
	})
	rt.finishResults(w, g, func() any { return merged.Conclude() })
}

// finishResults ends both results surfaces: the merged answer when a shard
// contributed one; otherwise a 404 when a shard said the test is gone, else
// a shard's refusal, else 503.
func (rt *Router) finishResults(w http.ResponseWriter, g gathered, merged func() any) {
	switch {
	case g.merged > 0:
		rt.finishGather(w, merged(), g.partial, g.degraded)
	case g.notFound != nil:
		rt.writeUpstream(w, g.notFound)
	case g.refused != nil:
		rt.writeUpstream(w, g.refused)
	default:
		rt.writeUnreachable(w, "results", g.err)
	}
}

// gathered is the outcome of one fleet-wide read.
type gathered struct {
	merged   int  // shards whose answer went into the merge
	partial  bool // a shard was unreachable, refused, or sent what would not merge
	degraded bool // a merged answer was served in degraded mode
	// The last 404 and the last other non-200 answer, for a caller with
	// nothing merged to relay; err is the last failure of any kind.
	notFound, refused *failover.Response
	err               error
}

// gather issues a GET with the caller's headers to every shard and hands
// each 200 body to merge. A 404 contributes nothing — the test is deleted
// on that shard, or was never prepared there — and is no fault. A shard
// that cannot be reached, answers anything else (an overloaded 429, a
// mid-delete 500), or whose body merge refuses is missing:
// the answer is partial, not failed.
func (rt *Router) gather(r *http.Request, path string, merge func(body []byte) error) gathered {
	var g gathered
	for _, f := range rt.fanOut(r.Context(), http.MethodGet, path, r.Header, nil) {
		switch {
		case f.err != nil:
			g.partial, g.err = true, f.err
		case f.up.Status == http.StatusNotFound:
			g.notFound = f.up
		case f.up.Status != http.StatusOK:
			g.partial, g.err = true, fmt.Errorf("shard answered status %d", f.up.Status)
			g.refused = f.up
		default:
			if err := merge(f.up.Body); err != nil {
				g.partial, g.err = true, fmt.Errorf("corrupt shard answer: %w", err)
				continue
			}
			g.merged++
			if f.up.Header.Get(server.DegradedHeader) == "1" {
				g.degraded = true
			}
		}
	}
	return g
}

// finishGather writes a merged answer with its markers. Every gathering
// surface ends here, so an answer missing a shard's contribution is marked
// on the response and counted in kscope_shard_partial_results_total, both
// or neither.
func (rt *Router) finishGather(w http.ResponseWriter, v any, partial, degraded bool) {
	if partial {
		w.Header().Set(PartialHeader, "1")
		if rt.partials != nil {
			rt.partials.Inc()
		}
	}
	if degraded {
		w.Header().Set(server.DegradedHeader, "1")
	}
	writeJSON(w, http.StatusOK, v)
}

// testInfo asks for a test's metadata, walking the ring from the home
// shard so a fully-lost segment does not hide a test every other shard
// also holds (prepared content is provisioned fleet-wide), and returns the
// first answer — a 200, or a definitive refusal to pass through. Only every
// shard being unreachable is an error.
func (rt *Router) testInfo(ctx context.Context, testID string, hdr http.Header) (*failover.Response, error) {
	home := rt.ring.Owner(TestKey(testID))
	var lastErr error
	for i := range rt.shards {
		seg := rt.shards[(home+i)%len(rt.shards)]
		up, err := rt.doShard(ctx, seg, http.MethodGet, "/api/tests/"+testID, hdr, nil)
		if err == nil {
			return up, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// handleSessionList serves the deployment-face session list, so a router
// client sees the same export a single node offers: every shard's stored
// sessions in global document-id order. Each shard's list is already sorted
// by worker id and session keys partition workers across shards, so a sort
// by worker id reproduces the order a single node would store. The test
// info comes first because a shard's 404 contributes an empty list: only
// the info can tell "no test" from "no sessions".
func (rt *Router) handleSessionList(w http.ResponseWriter, r *http.Request, testID string) {
	up, err := rt.testInfo(r.Context(), testID, r.Header)
	if err != nil {
		rt.writeUnreachable(w, "session list", err)
		return
	}
	if up.Status != http.StatusOK {
		rt.writeUpstream(w, up)
		return
	}
	uploads := []server.SessionUpload{}
	g := rt.gather(r, "/api/tests/"+testID+"/sessions", func(body []byte) error {
		part, err := server.DecodeSessionList(body)
		if err != nil {
			return err
		}
		uploads = append(uploads, part...)
		return nil
	})
	if g.merged == 0 && g.notFound == nil {
		rt.writeUnreachable(w, "session list", g.err)
		return
	}
	sort.Slice(uploads, func(a, b int) bool {
		return uploads[a].WorkerID < uploads[b].WorkerID
	})
	rt.finishGather(w, uploads, g.partial, g.degraded)
}

// handleListTests merges every shard's test listing; session counts sum
// across shards, the static fields (description, participants, pages)
// come from whichever shard answered first.
func (rt *Router) handleListTests(w http.ResponseWriter, r *http.Request) {
	byID := map[string]*server.TestSummary{}
	var order []string
	g := rt.gather(r, "/api/tests", func(body []byte) error {
		var part []server.TestSummary
		if err := json.Unmarshal(body, &part); err != nil {
			return err
		}
		for i := range part {
			s := part[i]
			if have, seen := byID[s.TestID]; seen {
				have.Sessions += s.Sessions
			} else {
				byID[s.TestID] = &s
				order = append(order, s.TestID)
			}
		}
		return nil
	})
	if g.merged == 0 {
		rt.writeUnreachable(w, "test listing", g.err)
		return
	}
	sort.Strings(order)
	out := make([]server.TestSummary, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	rt.finishGather(w, out, g.partial, g.degraded)
}

// handleDelete fans a test deletion to every shard (sessions live
// fleet-wide; prepared content is provisioned fleet-wide) and sums the
// sweep counts. Deletion stays idempotent end to end: a shard that was
// unreachable keeps its data, the router answers 503, and the client's
// retry re-sweeps — shards already swept answer 404, which merges as
// zero contribution.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request, testID string) {
	fans := rt.fanOut(r.Context(), http.MethodDelete, r.URL.RequestURI(), r.Header, nil)
	var pages, sessions, blobs float64
	var ok, notFound int
	var firstNotFound, failed *failover.Response
	var lastErr error
	for _, f := range fans {
		switch {
		case f.err != nil:
			lastErr = f.err
		case f.up.Status == http.StatusNotFound:
			notFound++
			if firstNotFound == nil {
				firstNotFound = f.up
			}
		case f.up.Status != http.StatusOK:
			if failed == nil {
				failed = f.up
			}
		default:
			ok++
			var counts map[string]any
			if json.Unmarshal(f.up.Body, &counts) == nil {
				pages += numField(counts, "pages")
				sessions += numField(counts, "sessions")
				blobs += numField(counts, "blobs")
			}
		}
	}
	switch {
	case lastErr != nil:
		rt.writeUnreachable(w, "test deletion", lastErr)
	case failed != nil:
		rt.writeUpstream(w, failed)
	case ok == 0 && notFound > 0:
		rt.writeUpstream(w, firstNotFound)
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "deleted",
			"test_id":  testID,
			"pages":    int(pages),
			"sessions": int(sessions),
			"blobs":    int(blobs),
		})
	}
}

func numField(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// shardReadiness is one shard's row in the aggregated /readyz body.
type shardReadiness struct {
	Name  string         `json:"name"`
	Ready bool           `json:"ready"`
	Nodes map[string]int `json:"nodes"` // node URL -> status (0 = unreachable)
}

// handleReady aggregates fleet health: a shard segment is ready when any
// of its nodes (primary or promoted standby) answers /readyz 200; the
// deployment is ready when every segment is. Probes are single attempts
// on a short timeout — readiness must report now, not after a retry
// budget.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	rows := make([]shardReadiness, len(rt.shards))
	var wg sync.WaitGroup
	for i, seg := range rt.shards {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			row := shardReadiness{Name: seg.name, Nodes: map[string]int{}}
			for n, httpc := range seg.httpc {
				base := seg.loop.Ring.Node(n)
				ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
				if err != nil {
					cancel()
					continue
				}
				resp, err := httpc.Do(req)
				if err != nil {
					cancel()
					row.Nodes[base] = 0
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				cancel()
				row.Nodes[base] = resp.StatusCode
				if resp.StatusCode == http.StatusOK {
					row.Ready = true
				}
			}
			rows[i] = row
		}(i, seg)
	}
	wg.Wait()
	ready := true
	for _, row := range rows {
		if !row.Ready {
			ready = false
		}
	}
	status, label := http.StatusOK, "ready"
	if !ready {
		status, label = http.StatusServiceUnavailable, "degraded"
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"status": label, "shards": rows})
}

// handleBatch splits a batched upload by session key, sends every owning
// shard its sub-batch at once, and reassembles the per-element statuses in
// the caller's element order. Whatever a single node refuses outright — a
// body over its wire or decompressed budget, a corrupt gzip stream, a
// document that is not one JSON array, more elements than its cap — the
// router refuses with the same status before any shard sees it. Split
// semantics stay idempotent: if any shard's sub-batch fails outright the
// router answers 503 and the client retries the whole batch — elements that
// committed answer 409 on the retry, which the batch client already treats
// as success.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request, testID string) {
	sp := splitPool.Get().(*batchSplit)
	defer sp.release()
	body, err := sp.read(r)
	if err != nil {
		refuseBatch(w, err)
		return
	}
	subs, err := sp.split(rt.ring, testID, body)
	if err != nil {
		refuseBatch(w, err)
		return
	}
	elems := sp.elems
	if len(elems) == 0 {
		// Nothing to split: let the home shard apply the single-node
		// empty-batch semantics. body is pooled scratch and a transport may
		// read a request body past the round trip's return, hence the copy.
		rt.forwardBatch(w, r, testID, bytes.Clone(body))
		return
	}
	fans := rt.scatter(r.Context(), http.MethodPost, r.URL.RequestURI(), batchHeader(r.Header),
		func(i int) ([]byte, bool) { return subs[i].body, subs[i].n > 0 })

	merged := server.BatchReport{
		TestID:  testID,
		Results: make([]server.BatchElementResult, len(elems)),
	}
	var rep server.BatchReport // one shard's, its results reused for the next
	for shardIdx, sub := range fans {
		switch {
		case subs[shardIdx].n == 0:
			continue
		case sub.err != nil:
			rt.writeUnreachable(w, "batch upload", sub.err)
			return
		case sub.up.Status == http.StatusOK && sub.up.Header.Get(server.ConcludedHeader) == "1":
			// The test concluded mid-batch on this shard; relay the
			// concluded acknowledgement for the whole batch (other shards'
			// stored elements answer 409 if the client ever retries).
			rt.writeUpstream(w, sub.up)
			return
		case sub.up.Status != http.StatusOK:
			// A stream-level sub-batch failure. The router cut this
			// sub-batch out of validated JSON, so 400/413 here means the
			// shard is refusing work; relay 5xx/429 (with Retry-After) and
			// pass definitive 4xx through so the client sees the shard's
			// answer.
			rt.writeUpstream(w, sub.up)
			return
		}
		if err := server.DecodeBatchReport(sub.up.Body, &rep); err != nil || len(rep.Results) != subs[shardIdx].n {
			rt.writeUnreachable(w, "batch upload", errors.New("corrupt sub-batch report"))
			return
		}
		merged.Accepted += rep.Accepted
		merged.Rejected += rep.Rejected
		// A shard reports positionally, and its sub-batch kept the caller's
		// order: its j-th result is the j-th element it owns.
		j := 0
		for i, e := range elems {
			if e.shard == shardIdx {
				merged.Results[i] = rep.Results[j]
				merged.Results[i].Index = i
				j++
			}
		}
	}
	server.WriteBatchReport(w, http.StatusOK, &merged)
}

// refuseBatch answers for a batch the router will not split.
func refuseBatch(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errTooLarge) || errors.Is(err, errBatchTooLong) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "batch upload: %v", err)
}

// forwardBatch relays an (already decompressed) batch body to the test's
// home shard.
func (rt *Router) forwardBatch(w http.ResponseWriter, r *http.Request, testID string, body []byte) {
	seg := rt.shards[rt.ring.Owner(TestKey(testID))]
	up, err := rt.doShard(r.Context(), seg, http.MethodPost, r.URL.RequestURI(), batchHeader(r.Header), body)
	if err != nil {
		rt.writeUnreachable(w, "batch upload", err)
		return
	}
	rt.writeUpstream(w, up)
}

// batchHeader strips the original Content-Encoding: sub-batches go out as
// plain JSON.
func batchHeader(src http.Header) http.Header {
	h := src.Clone()
	h.Del("Content-Encoding")
	h.Set("Content-Type", "application/json")
	return h
}
