package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/store"
)

// spanHeader carries the calling span's id from the tester through the
// router (copyProxyHeader forwards it) to the node that serves the request.
const spanHeader = "X-Bench-Span"

// Span kinds, one per public seam the benchmark wraps.
const (
	kindClient    = "client"    // tester: request sent -> body read
	kindRouter    = "router"    // http.Handler on the router's listener
	kindShardRT   = "shard_rt"  // shard.Config.Transport round trip, body included
	kindNode      = "node"      // http.Handler on a storage node's listener
	kindWALWrite  = "wal_write" // store.WALFile.Write on the serving store
	kindWALSync   = "wal_sync"  // store.WALFile.Sync on the serving store
	kindShip      = "ship"      // store.Shipper.Ship (replica.Primary)
	kindReplRT    = "repl_rt"   // PrimaryConfig.Transport round trip
	kindFollower  = "follower"  // http.Handler on the follower's listener
	kindFWALWrite = "follower_wal_write"
	kindFWALSync  = "follower_wal_sync"
)

// span is one timed interval. Times are nanoseconds since the tracer was
// created, read from the monotonic clock of the one process that holds
// the tester and every tier.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer records spans in memory; nothing is written until flush.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// routerSpan maps a tester span id to the router span serving it, so a
	// shard round trip (which still carries the tester's id: the router
	// forwards inbound headers untouched) is parented to the router.
	routerSpan sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func headerSpan(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(spanHeader), 10, 64)
	return id
}

// handler wraps an http.Handler in a span of the given kind. The parent is
// the span named by the request's header; a request without one (the
// primary's replication POSTs) is parented later by time containment.
func (t *tracer) handler(kind string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.newID(), Parent: headerSpan(r.Header), Kind: kind, Start: t.now()}
		if kind == kindRouter && s.Parent != 0 {
			t.routerSpan.Store(s.Parent, s.ID)
			defer t.routerSpan.Delete(s.Parent)
		}
		next.ServeHTTP(w, r)
		t.record(s)
	})
}

// tracedTransport is the RoundTripper seam: one span per round trip,
// ending when the caller has read and closed the response body.
type tracedTransport struct {
	t    *tracer
	kind string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{ID: tt.t.newID(), Kind: tt.kind, Start: tt.t.now()}
	if parent := headerSpan(req.Header); parent != 0 {
		s.Parent = parent
		if rs, ok := tt.t.routerSpan.Load(parent); ok {
			s.Parent = rs.(uint64)
		}
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.record(b.s) })
	return err
}

// tracedFS is the store.FileSystem seam: WAL appends and fsyncs become
// spans; everything else passes through.
type tracedFS struct {
	store.FileSystem
	t                   *tracer
	writeKind, syncKind string
}

func (fs tracedFS) OpenAppend(path string) (store.WALFile, error) {
	f, err := fs.FileSystem.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return tracedWAL{WALFile: f, fs: fs}, nil
}

type tracedWAL struct {
	store.WALFile
	fs tracedFS
}

func (w tracedWAL) Write(p []byte) (int, error) {
	s := span{ID: w.fs.t.newID(), Kind: w.fs.writeKind, Start: w.fs.t.now()}
	n, err := w.WALFile.Write(p)
	s.Bytes = int64(n)
	w.fs.t.record(s)
	return n, err
}

func (w tracedWAL) Sync() error {
	s := span{ID: w.fs.t.newID(), Kind: w.fs.syncKind, Start: w.fs.t.now()}
	err := w.WALFile.Sync()
	w.fs.t.record(s)
	return err
}

// tracedShipper is the store.Shipper seam round replica.Primary.Ship.
type tracedShipper struct {
	next store.Shipper
	t    *tracer
}

func (ts tracedShipper) Ship(collection string, frames []byte, records int) error {
	s := span{ID: ts.t.newID(), Kind: kindShip, Start: ts.t.now(), Bytes: int64(len(frames))}
	err := ts.next.Ship(collection, frames, records)
	ts.t.record(s)
	return err
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// flush writes every span as one JSON line.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// split is the time of one or more tester requests of one route taken
// apart by span kind: the self time (span minus the part its children
// cover), the inclusive time, the span count and the bytes the spans moved.
type split struct {
	Route    string
	Requests int
	TotalNs  int64              // the testers' spans
	Self     map[string]float64 // ns
	Incl     map[string]int64   // ns
	Count    map[string]int
	Bytes    map[string]int64
}

func newSplit(route string) *split {
	return &split{Route: route, Self: map[string]float64{}, Incl: map[string]int64{}, Count: map[string]int{}, Bytes: map[string]int64{}}
}

// add folds another split (nil: a route with no traffic) into s.
func (s *split) add(o *split) {
	if o == nil {
		return
	}
	s.Requests += o.Requests
	s.TotalNs += o.TotalNs
	for k, v := range o.Self {
		s.Self[k] += v
	}
	for k, v := range o.Incl {
		s.Incl[k] += v
	}
	for k, v := range o.Count {
		s.Count[k] += v
	}
	for k, v := range o.Bytes {
		s.Bytes[k] += v
	}
}

// splitRequests rebuilds the span tree and returns one split per tester
// request, plus the number of spans no request contains (background
// work between requests). Spans that carry no parent are linked to the
// innermost span containing them in time: with one request in flight that
// link is exact.
func splitRequests(spans []span) (splits []*split, orphans int) {
	spans = append([]span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var open []int
	for i := range spans {
		s := &spans[i]
		keep := open[:0]
		for _, o := range open {
			if spans[o].End >= s.Start {
				keep = append(keep, o)
			}
		}
		open = keep
		if s.Parent == 0 && s.Kind != kindClient {
			best := -1
			for _, o := range open {
				if spans[o].End < s.End {
					continue
				}
				if best < 0 || spans[o].End-spans[o].Start < spans[best].End-spans[best].Start {
					best = o
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			} else {
				orphans++
			}
		}
		open = append(open, i)
	}

	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.Kind != kindClient {
			continue
		}
		out := newSplit(s.Route)
		out.Requests, out.TotalNs = 1, s.End-s.Start
		attribute(i, spans, children, out)
		splits = append(splits, out)
	}
	return splits, orphans
}

// treeNode is one span of a request, clipped to its parent's interval.
type treeNode struct {
	kind   string
	lo, hi int64
	parent int // index into the request's node list; -1 for the root
}

// attribute charges every instant of the request to the innermost spans
// active at that instant: a span's self time is its duration minus the
// part its children cover, and where children run in parallel (the router
// fans out to its shards) the instant is shared equally among them. The
// self times of one request therefore add up to the tester's span exactly.
func attribute(root int, spans []span, children map[uint64][]int, out *split) {
	var nodes []treeNode
	var collect func(i, parent int, lo, hi int64)
	collect = func(i, parent int, lo, hi int64) {
		s := spans[i]
		if s.Start > lo {
			lo = s.Start
		}
		if s.End < hi {
			hi = s.End
		}
		if hi < lo {
			hi = lo
		}
		out.Incl[s.Kind] += s.End - s.Start
		out.Count[s.Kind]++
		out.Bytes[s.Kind] += s.Bytes
		nodes = append(nodes, treeNode{kind: s.Kind, lo: lo, hi: hi, parent: parent})
		self := len(nodes) - 1
		for _, c := range children[s.ID] {
			collect(c, self, lo, hi)
		}
	}
	collect(root, -1, spans[root].Start, spans[root].End)

	cuts := make([]int64, 0, 2*len(nodes))
	for _, n := range nodes {
		cuts = append(cuts, n.lo, n.hi)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	hasActiveChild := make([]bool, len(nodes))
	innermost := make([]int, 0, len(nodes))
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if a == b {
			continue
		}
		for i := range hasActiveChild {
			hasActiveChild[i] = false
		}
		for _, n := range nodes {
			if n.covers(a, b) && n.parent >= 0 {
				hasActiveChild[n.parent] = true
			}
		}
		innermost = innermost[:0]
		for i, n := range nodes {
			if n.covers(a, b) && !hasActiveChild[i] {
				innermost = append(innermost, i)
			}
		}
		share := float64(b-a) / float64(len(innermost))
		for _, i := range innermost {
			out.Self[nodes[i].kind] += share
		}
	}
}

func (n treeNode) covers(a, b int64) bool { return n.lo <= a && b <= n.hi }

// byRoute adds the requests up per route.
func byRoute(splits []*split) map[string]*split {
	out := map[string]*split{}
	for _, sp := range splits {
		if out[sp.Route] == nil {
			out[sp.Route] = newSplit(sp.Route)
		}
		out[sp.Route].add(sp)
	}
	return out
}

// selfUs is the mean self time of kind per request of the route, in µs.
func (rs *split) selfUs(kind string) float64 {
	if rs == nil {
		return 0
	}
	return ratio(rs.Self[kind]/1e3, float64(rs.Requests))
}

// selfUsPerSpan is the mean self time of one span of kind, in µs.
func (rs *split) selfUsPerSpan(kind string) float64 {
	if rs == nil {
		return 0
	}
	return ratio(rs.Self[kind]/1e3, float64(rs.Count[kind]))
}

// perRequest is the mean number of kind spans per request of the route.
func (rs *split) perRequest(kind string) float64 {
	if rs == nil {
		return 0
	}
	return ratio(float64(rs.Count[kind]), float64(rs.Requests))
}
