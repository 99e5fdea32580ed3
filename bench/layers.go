package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
)

// onePass is one single-tester replay of the layer script.
type onePass struct {
	flow, batch partResult
	tp          *topology
	c           *tester
	stored      int // sessions stored, warm-up included
}

// runOnePass builds the topology (traced when tr is non-nil), warms it up
// and replays the layer script with one tester: one request in flight, so
// a span's parent is whatever contains it in time.
func runOnePass(workload string, sc *script, workdir string, tr *tracer) (*onePass, error) {
	dir, err := freshDir(workdir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tp, err := buildTopology(workload, sc, dir, tr)
	if err != nil {
		return nil, err
	}
	defer tp.close()
	c := newTester(tp.baseURL, tr)
	defer c.close()
	cs := []*tester{c}
	warmUp(cs, sc)
	if tr != nil {
		tr.reset() // the split describes the script, not the warm-up
	}
	p := &onePass{tp: tp, c: c}
	p.flow = flowPart(cs, sc.Rounds[0].Flow, true)
	p.batch = batchPart(cs, sc.Rounds[0].Batch, true)
	p.stored = sessionsPerTest + p.flow.sessions + p.batch.sessions
	if c.failed > 0 {
		return nil, fmt.Errorf("layer pass: %d of %d requests failed; first: %w", c.failed, c.attempted, c.firstErr)
	}
	return p, audit(tp, sc, c.acked, c)
}

// layerPass measures every per-layer metric of one workload: the layer
// script (half of round 1) replayed by one tester untraced, then traced,
// then the direct pass over the same inputs. The spans go to spanPath.
func layerPass(workload string, seed int64, sz sizing, loops int, workdir, spanPath string, log func(string, ...any)) (m map[string]float64, attempted int, err error) {
	sc := newScript(seed, (sz.flowPerRound+1)/2, (sz.batchPerRound+1)/2, 1)
	plain, err := runOnePass(workload, sc, workdir, nil)
	if err != nil {
		return nil, 0, err
	}
	tr := newTracer()
	traced, err := runOnePass(workload, sc, workdir, tr)
	if err != nil {
		return nil, 0, err
	}
	attempted = plain.c.attempted + traced.c.attempted
	if err := tr.flush(spanPath); err != nil {
		return nil, attempted, err
	}
	splits, orphans := splitRequests(tr.spans)
	routes := byRoute(splits)
	log("layer script: %d flow + %d batch sessions, one tester; %d spans in %s (%d outside any request)",
		plain.flow.sessions, plain.batch.sessions, len(tr.spans), spanPath, orphans)
	if err := checkSplit(routes, log); err != nil {
		return nil, attempted, err
	}

	// A layer the workload does not have reports 0.
	m = map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	rate := func(p partResult) float64 { return float64(p.sessions) / p.elapsed.Seconds() }
	m["trace.overhead_ratio"] = rate(plain.flow) / rate(traced.flow)

	// The span split, per route of the tester's request.
	for _, r := range []string{"page", "upload", "batch", "results_raw", "results_qc"} {
		m["shard.router_self_us."+r] = routes[r].selfUs(kindRouter)
		m["server.handle_self_us."+r] = routes[r].selfUs(kindNode)
	}
	for _, r := range []string{"page", "upload"} {
		m["shard.hop_us."+r] = routes[r].selfUsPerSpan(kindShardRT)
		m["net.client_hop_us."+r] = routes[r].selfUs(kindClient)
	}
	for _, r := range []string{"batch", "results_raw", "results_qc"} {
		m["shard.upstream_calls_per_req."+r] = routes[r].perRequest(kindShardRT)
	}
	if qc := routes["results_qc"]; qc != nil {
		m["shard.upstream_bytes_per_req.results_qc"] = ratio(float64(qc.Bytes[kindShardRT]), float64(qc.Requests))
	}
	writes := newSplit("upload+batch")
	writes.add(routes["upload"])
	writes.add(routes["batch"])
	for r, perRequest := range map[string]float64{"upload": 1, "batch": batchSize} {
		rs := routes[r]
		m["store.wal_write_us."+r] = rs.selfUs(kindWALWrite)
		m["store.fsync_us."+r] = rs.selfUs(kindWALSync)
		m["store.fsyncs_per_session."+r] = rs.perRequest(kindWALSync) / perRequest
		m["replica.posts_per_session."+r] = rs.perRequest(kindReplRT) / perRequest
		if rs != nil {
			m["replica.ship_us."+r] = ratio(float64(rs.Incl[kindShip])/1e3, float64(rs.Requests))
		}
	}
	written := traced.flow.sessions + traced.batch.sessions
	m["store.wal_bytes_per_session"] = ratio(float64(writes.Bytes[kindWALWrite]), float64(written))
	m["replica.link_rtt_us"] = writes.selfUsPerSpan(kindReplRT)
	m["replica.follower_handle_us"] = writes.selfUsPerSpan(kindFollower)
	m["replica.follower_fsync_us"] = ratio(writes.Self[kindFWALSync]/1e3, float64(writes.Count[kindFollower]))

	// Counts and costs, from the untraced pass.
	m["server.results_cold_us"] = mean(plain.batch.lat[routeResultsCold]) * 1e3
	for _, name := range demotedTails {
		m["tail."+name] = roundValues(plain.flow, plain.batch)[name]
	}
	m["server.page_bytes_per_fetch"] = ratio(float64(plain.c.pageBytes), float64(plain.c.pageFetches))
	m["aggregator.prepare_ms"] = ratio(float64(plain.tp.prepare)/1e6, float64(len(sc.tests())))
	for part, p := range map[string]partResult{"flow": plain.flow, "batch": plain.batch} {
		n := float64(p.sessions)
		m["process.cpu_us_per_session."+part] = float64(p.cost.cpu) / 1e3 / n
		m["process.allocs_per_session."+part] = float64(p.cost.mallocs) / n
		m["process.alloc_bytes_per_session."+part] = float64(p.cost.allocBytes) / n
	}
	m["process.gc_pause_ms"] = float64(plain.flow.cost.gcPause+plain.batch.cost.gcPause) / 1e6
	var hitRatios []float64
	for _, n := range plain.tp.nodes {
		if v, ok := gauge(n.reg, `kscope_cache_hit_ratio{cache="results"}`); ok {
			hitRatios = append(hitRatios, v)
		}
		v, _ := gauge(n.reg, "kscope_accum_rebuilds_total")
		m["server.accum_rebuilds"] += v
		v, _ = gauge(n.reg, "kscope_earlystop_folds_total")
		m["earlystop.folds_per_session"] += v / float64(plain.stored)
		for c := guard.Class(0); c < guard.NumClasses; c++ {
			v, _ = gauge(n.reg, fmt.Sprintf(`kscope_guard_queued_total{class=%q}`, c.String()))
			m["guard.queued"] += v
		}
		m["replica.bytes_shipped_per_session"] += ratio(float64(n.reg.Counter("kscope_repl_bytes_shipped").Value()), float64(plain.stored))
	}
	m["server.cache_hit_ratio"] = mean(hitRatios)
	if reg := plain.tp.routerReg; reg != nil {
		m["shard.proxy_retries"] = float64(reg.Counter("kscope_shard_proxy_retries_total").Value())
	}

	return m, attempted, directPass(sc, workdir, loops, m)
}

// checkSplit prints, per route, where the tester's time went and verifies
// that the self times account for the tester's span within 5 %.
func checkSplit(routes map[string]*split, log func(string, ...any)) error {
	for _, r := range routeNames {
		rs := routes[r]
		if rs == nil {
			continue
		}
		var parts []string
		sum := 0.0
		for _, kind := range []string{kindClient, kindRouter, kindShardRT, kindNode, kindWALWrite, kindWALSync,
			kindShip, kindReplRT, kindFollower, kindFWALWrite, kindFWALSync} {
			if self, ok := rs.Self[kind]; ok {
				sum += self
				parts = append(parts, fmt.Sprintf("%s %.1f", kind, self/1e3/float64(rs.Requests)))
			}
		}
		total := float64(rs.TotalNs)
		log("split %-12s n=%-6d span %.1f us = self[%s]", r, rs.Requests, total/1e3/float64(rs.Requests), strings.Join(parts, " + "))
		if gap := (sum - total) / total; gap > 0.05 || gap < -0.05 {
			return fmt.Errorf("route %s: self times sum to %.0f ns, the tester's spans to %.0f ns (gap %.1f%%)", r, sum, total, 100*gap)
		}
	}
	return nil
}

// timeLoop runs op n times and returns the mean duration in ns.
func timeLoop(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// nopWriter is the cheapest http.ResponseWriter: the direct pass times
// the middleware, not a recorder.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// directPass times public functions in a loop on the script's own inputs
// (the warm-up test's crowd): what one call costs with nothing around it.
// loops is the iteration count of the cheapest loops' unit.
func directPass(sc *script, workdir string, loops int, m map[string]float64) error {
	warm := sc.Warm
	uploads := make([]server.SessionUpload, len(warm.Singles))
	for i, body := range warm.Singles {
		if err := json.Unmarshal(body, &uploads[i]); err != nil {
			return err
		}
		// What the server fills in from storage before it stores a session.
		for j := range uploads[i].Controls {
			uploads[i].Controls[j].Expected = uploads[i].Controls[j].Got
		}
	}
	info := &server.TestInfo{
		TestID:    warm.ID,
		Questions: []string{"q"},
		Pages: []server.PageView{
			{ID: realPage, TestID: warm.ID, Kind: aggregator.KindReal},
			{ID: controlPage, TestID: warm.ID, Kind: aggregator.KindControl},
		},
	}
	n := len(uploads)

	var decodeErr error
	m["server.decode_validate_us"] = timeLoop(loops, func(i int) {
		var u server.SessionUpload
		if err := json.Unmarshal(warm.Singles[i%n], &u); err != nil {
			decodeErr = err
		} else if err := u.Validate(info); err != nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		return fmt.Errorf("direct pass: decode+validate: %w", decodeErr)
	}

	var concludeErr error
	m["server.conclude_uploads_200_us"] = timeLoop(loops/64+1, func(int) {
		if _, err := server.ConcludeUploads(info, uploads, true); err != nil {
			concludeErr = err
		}
	}) / 1e3
	if concludeErr != nil {
		return fmt.Errorf("direct pass: ConcludeUploads: %w", concludeErr)
	}

	votes := make([][]earlystop.Vote, n)
	for i, u := range uploads {
		votes[i] = []earlystop.Vote{{PageID: realPage, QuestionID: "q0", Choice: u.Responses[0].Choice}}
	}
	var engine *earlystop.State
	var foldErr error
	m["earlystop.fold_us"] = timeLoop(loops*5, func(i int) {
		if i%n == 0 {
			engine, foldErr = earlystop.New(earlystop.Config{Alpha: earlyStopAlpha, Streams: 1})
			if foldErr != nil {
				return
			}
		}
		if engine.Fold(votes[i%n]) != nil {
			foldErr = fmt.Errorf("the balanced script decided after %d sessions", i%n+1)
		}
	}) / 1e3
	if foldErr != nil {
		return fmt.Errorf("direct pass: earlystop: %w", foldErr)
	}

	sessions := make([]quality.WorkerSession, n)
	for i, u := range uploads {
		sessions[i] = quality.WorkerSession{WorkerID: u.WorkerID, Responses: u.Responses, Behaviors: u.Behaviors, Controls: u.Controls}
	}
	kept := 0
	m["quality.extract_features_us"] = timeLoop(loops*5, func(i int) {
		if quality.ExtractFeatures(sessions[i%n]).HasBehaviors {
			kept++
		}
	}) / 1e3

	g := guard.New(guard.Config{MaxInflight: guardInflight})
	done := make(chan struct{})
	m["guard.admit_release_ns"] = timeLoop(loops*10, func(int) {
		if release, ok := g.Admit(done, guard.ClassUpload); ok {
			release()
		}
	})

	mw := obs.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), nil, obs.NewRegistry(), server.RouteLabel)
	req, err := http.NewRequest(http.MethodGet, "http://bench/api/tests/"+warm.ID+"/results", nil)
	if err != nil {
		return err
	}
	w := nopWriter{h: http.Header{}}
	m["obs.middleware_us"] = timeLoop(loops*2, func(int) { mw.ServeHTTP(w, req) }) / 1e3

	ring, err := shard.NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		return err
	}
	owners := 0
	m["shard.ring_owner_ns"] = timeLoop(loops*10, func(i int) {
		owners += ring.Owner(shard.SessionKey(warm.ID, warm.Workers[i%n]))
	})

	// Store: documents shaped like the server's, ids made unique per loop.
	doc := func(test string, i int) store.Document {
		u := &uploads[i%n]
		return store.Document{
			store.IDField: fmt.Sprintf("%s/%s-%d", test, u.WorkerID, i),
			"test_id":     test,
			"worker_id":   u.WorkerID,
			"session":     string(warm.Singles[i%n]),
		}
	}
	db := store.OpenMemory()
	defer db.Close()
	coll := db.Collection(aggregator.ResponsesCollection)
	coll.EnsureIndex("test_id")
	singles := make([]store.Document, loops)
	for i := range singles {
		singles[i] = doc(fmt.Sprintf("single-%d", i/sessionsPerTest), i)
	}
	var storeErr error
	m["store.insert_unique_us"] = timeLoop(loops, func(i int) {
		if _, err := coll.InsertUnique(singles[i]); err != nil {
			storeErr = err
		}
	}) / 1e3
	batches := make([][]store.Document, loops/100+2)
	for b := range batches {
		for i := 0; i < batchSize; i++ {
			batches[b] = append(batches[b], doc(fmt.Sprintf("batch-%d", b/2), b*batchSize+i))
		}
	}
	m["store.insert_batch100_us"] = timeLoop(len(batches), func(b int) {
		_, errs := coll.InsertUniqueBatch(batches[b])
		for _, err := range errs {
			if err != nil {
				storeErr = err
			}
		}
	}) / 1e3
	found := 0
	m["store.find_eq_200_us"] = timeLoop(loops/10+1, func(i int) {
		found = len(coll.FindEq("test_id", fmt.Sprintf("batch-%d", i%(len(batches)/2))))
	}) / 1e3
	if storeErr != nil || found != sessionsPerTest {
		return fmt.Errorf("direct pass: store: err %v, FindEq returned %d of %d", storeErr, found, sessionsPerTest)
	}

	// Blobs: one 113 KB page side, from memory and from a directory.
	page := make([]byte, warm.PageLen[0][1])
	for n, src := 0, sc.Variants[warm.Left].HTML(); n < len(page); {
		n += copy(page[n:], src)
	}
	dir, err := freshDir(workdir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dirBlobs, err := store.OpenBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return err
	}
	for name, blobs := range map[string]*store.BlobStore{"mem": store.NewBlobStore(), "dir": dirBlobs} {
		if err := blobs.Put("t/p/left.html", page); err != nil {
			return err
		}
		var blobErr error
		m["store.blob_get_"+name+"_us"] = timeLoop(loops/4+1, func(int) {
			if data, err := blobs.Get("t/p/left.html"); err != nil || len(data) != len(page) {
				blobErr = fmt.Errorf("Get: %d bytes, err %v", len(data), err)
			}
		}) / 1e3
		if blobErr != nil {
			return fmt.Errorf("direct pass: %s blobs: %w", name, blobErr)
		}
	}
	if kept == 0 || owners < 0 {
		return fmt.Errorf("direct pass: inputs carried no behaviours")
	}
	return nil
}
