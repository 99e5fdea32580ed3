package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
)

// The four workloads are four topologies under one script.
const (
	nodeMemory     = "node_memory"
	nodeDurable    = "node_durable"
	pairReplicated = "pair_replicated"
	fleetRouter3   = "fleet_router3"
)

var workloadNames = []string{nodeMemory, nodeDurable, pairReplicated, fleetRouter3}

const (
	fleetShards    = 3
	earlyStopAlpha = 0.05
	guardInflight  = 64 // kscope-server's -max-inflight default
)

// node is one storage node as cmd/kscope-server assembles it.
type node struct {
	db    *store.DB
	blobs *store.BlobStore
	srv   *server.Server
	reg   *obs.Registry
	dir   string // store directory; "" for a memory node
}

// topology is one running deployment on loopback listeners.
type topology struct {
	baseURL string // what the testers talk to
	nodes   []*node
	earlyOn bool // nodes run the sequential engine (-shards refuses it)

	router    *shard.Router // fleet only
	routerReg *obs.Registry

	prim        *replica.Primary // replicated pair only
	followerDir string

	prepare time.Duration // time inside aggregator.Prepare, all tests

	servers    []*http.Server
	serving    sync.WaitGroup
	transports []*http.Transport
}

// buildTopology provisions every test of the script and brings the
// workload's deployment up. dir is an empty directory the durable stores
// may fill. A non-nil tracer wraps every public seam in spans; a nil one
// leaves the assembly exactly as kscope-server builds it.
func buildTopology(workload string, sc *script, dir string, tr *tracer) (tp *topology, err error) {
	tp = &topology{earlyOn: workload != fleetRouter3}
	defer func() {
		if err != nil {
			tp.close()
		}
	}()
	switch workload {
	case nodeMemory:
		n := &node{db: store.OpenMemory(), blobs: store.NewBlobStore(), reg: obs.NewRegistry()}
		tp.nodes = []*node{n}
		if err = tp.provision(sc, n.db, n.blobs); err != nil {
			return tp, err
		}
		h, err := tp.assemble(n, true)
		if err != nil {
			return tp, err
		}
		tp.baseURL, err = tp.listen(wrap(tr, kindNode, h))
		return tp, err

	case nodeDurable, pairReplicated:
		n := &node{dir: filepath.Join(dir, "primary"), reg: obs.NewRegistry()}
		tp.nodes = []*node{n}
		if err = tp.provisionDir(sc, n.dir); err != nil {
			return tp, err
		}
		// Serving fsyncs every append before it acknowledges. (The
		// flagless kscope-server default is SyncInterval, under which the
		// fsync leaves the ack path; the benchmark states its policy.)
		opts := []store.Option{store.WithSyncPolicy(store.SyncAlways)}
		if tr != nil {
			opts = append(opts, store.WithFileSystem(tracedFS{store.OSFileSystem{}, tr, kindWALWrite, kindWALSync}))
		}
		backend := store.Dir(filepath.Join(n.dir, "db"))
		var extra []server.Option
		if workload == pairReplicated {
			if err = tp.startFollower(dir, n.reg, tr); err != nil {
				return tp, err
			}
			var shipper store.Shipper = tp.prim
			if tr != nil {
				shipper = tracedShipper{tp.prim, tr}
			}
			backend = store.Replicated(backend.Dir(), shipper)
			extra = append(extra, server.WithReplication(tp.prim, 0))
		}
		if n.db, err = store.OpenBackend(backend, opts...); err != nil {
			return tp, err
		}
		if tp.prim != nil {
			tp.prim.Bind(n.db)
		}
		if n.blobs, err = store.OpenBlobStore(filepath.Join(n.dir, "blobs")); err != nil {
			return tp, err
		}
		h, err := tp.assemble(n, true, extra...)
		if err != nil {
			return tp, err
		}
		if tp.baseURL, err = tp.listen(wrap(tr, kindNode, h)); err != nil {
			return tp, err
		}
		if tp.prim != nil {
			err = tp.awaitSteady()
		}
		return tp, err

	case fleetRouter3:
		// Prepared content is provisioned fleet-wide: the test and page
		// documents are copied to every shard, and — as kscope-load's
		// multinode scenario does — the static page blobs live in one
		// shared in-memory blob store.
		blobs := store.NewBlobStore()
		specs := make([]shard.Spec, fleetShards)
		for i := range specs {
			n := &node{db: store.OpenMemory(), blobs: blobs, reg: obs.NewRegistry()}
			tp.nodes = append(tp.nodes, n)
			if i == 0 {
				if err = tp.provision(sc, n.db, blobs); err != nil {
					return tp, err
				}
			} else if err = copyPrepared(tp.nodes[0].db, n.db); err != nil {
				return tp, err
			}
			// -shards refuses -earlystop-alpha: the fleet runs without it.
			h, err := tp.assemble(n, false)
			if err != nil {
				return tp, err
			}
			url, err := tp.listen(wrap(tr, kindNode, h))
			if err != nil {
				return tp, err
			}
			specs[i] = shard.Spec{Name: fmt.Sprintf("shard-%d", i), Primary: url}
		}
		tp.routerReg = obs.NewRegistry()
		tp.router, err = shard.New(shard.Config{
			Shards:   specs,
			Registry: tp.routerReg,
			Transport: func(string, string) http.RoundTripper {
				return tp.transport(tr, kindShardRT)
			},
		})
		if err != nil {
			return tp, err
		}
		h := obs.Middleware(tp.router, nil, tp.routerReg, server.RouteLabel)
		tp.baseURL, err = tp.listen(wrap(tr, kindRouter, h))
		return tp, err
	}
	return tp, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

func wrap(tr *tracer, kind string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return tr.handler(kind, h)
}

// transport returns a private copy of http.DefaultTransport — what the
// router and the primary use when given none — so teardown can close its
// idle connections; traced, it is wrapped in a span per round trip.
func (tp *topology) transport(tr *tracer, kind string) http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	tp.transports = append(tp.transports, t)
	if tr == nil {
		return t
	}
	return &tracedTransport{t: tr, kind: kind, base: t}
}

// assemble builds one node's serving stack the way kscope-server -quiet
// does: obs.Middleware over server.New with the K=64 guard.
func (tp *topology) assemble(n *node, early bool, extra ...server.Option) (http.Handler, error) {
	g := guard.New(guard.Config{MaxInflight: guardInflight})
	g.RegisterMetrics(n.reg)
	opts := []server.Option{server.WithObservability(n.reg), server.WithGuard(g)}
	if early {
		opts = append(opts, server.WithEarlyStop(server.EarlyStopConfig{Alpha: earlyStopAlpha}))
	}
	srv, err := server.New(n.db, n.blobs, append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return obs.Middleware(srv, nil, n.reg, server.RouteLabel), nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (tp *topology) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	tp.servers = append(tp.servers, srv)
	tp.serving.Add(1)
	go func() {
		defer tp.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return "http://" + ln.Addr().String(), nil
}

// provision prepares every test of the script into db and blobs and
// records the length of every page file the testers will check.
func (tp *topology) provision(sc *script, db *store.DB, blobs *store.BlobStore) error {
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return err
	}
	for _, t := range sc.tests() {
		start := time.Now()
		prep, err := agg.Prepare(t.params(), t.sites(sc.Variants), nil)
		tp.prepare += time.Since(start)
		if err != nil {
			return fmt.Errorf("preparing %s: %w", t.ID, err)
		}
		if len(prep.Pages) != 2 || prep.Pages[0].ID != realPage || prep.Pages[1].ID != controlPage {
			return fmt.Errorf("preparing %s: unexpected page spine %+v", t.ID, prep.Pages)
		}
		for p, page := range prep.Pages {
			for f, file := range pageFiles {
				data, err := blobs.Get(t.ID + "/" + page.ID + "/" + file)
				if err != nil {
					return err
				}
				t.PageLen[p][f] = len(data)
			}
		}
	}
	return nil
}

// provisionDir is `kscope prepare`: the store opened with its defaults
// under dir, filled, and closed again before the server opens it.
func (tp *topology) provisionDir(sc *script, dir string) error {
	db, err := store.Open(filepath.Join(dir, "db"))
	if err != nil {
		return err
	}
	defer db.Close()
	blobs, err := store.OpenBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return err
	}
	return tp.provision(sc, db, blobs)
}

// copyPrepared copies the prepared test and page documents to another
// shard's store.
func copyPrepared(from, to *store.DB) error {
	for _, name := range []string{aggregator.TestsCollection, aggregator.PagesCollection} {
		dst := to.Collection(name)
		for _, doc := range from.Collection(name).Find(nil) {
			if _, err := dst.InsertUnique(doc); err != nil {
				return fmt.Errorf("copying %s/%s: %w", name, doc.ID(), err)
			}
		}
	}
	return nil
}

// startFollower brings up the warm standby and the primary's shipping
// half (AckFollower: an upload is acknowledged only once the follower
// has fsynced it).
func (tp *topology) startFollower(dir string, reg *obs.Registry, tr *tracer) error {
	tp.followerDir = filepath.Join(dir, "follower")
	fcfg := replica.FollowerConfig{Dir: tp.followerDir, Registry: obs.NewRegistry()}
	if tr != nil {
		fcfg.FS = tracedFS{store.OSFileSystem{}, tr, kindFWALWrite, kindFWALSync}
	}
	follower, err := replica.NewFollower(fcfg)
	if err != nil {
		return err
	}
	url, err := tp.listen(wrap(tr, kindFollower, replica.NewNode(follower)))
	if err != nil {
		return err
	}
	// The primary shares its node's registry, as buildPrimary wires it.
	tp.prim, err = replica.NewPrimary(replica.PrimaryConfig{
		FollowerURL: url,
		Epoch:       1,
		Mode:        replica.AckFollower,
		Transport:   tp.transport(tr, kindReplRT),
		Registry:    reg,
	})
	return err
}

// awaitSteady waits for the snapshot catch-up of the provisioned store to
// finish, so the timed part starts on a steady stream.
func (tp *topology) awaitSteady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if frames, _ := tp.prim.Lag(); tp.prim.State() == "steady" && frames == 0 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replication stream not steady after 30s: state %s, last error %v",
		tp.prim.State(), tp.prim.LastErr())
}

// close stops every listener, waits for the serve loops, stops the
// replication stream and closes the stores. It is safe on a half-built
// topology.
func (tp *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Front tier first, so nothing is in flight to the tiers behind it.
	for i := len(tp.servers) - 1; i >= 0; i-- {
		if err := tp.servers[i].Shutdown(ctx); err != nil {
			tp.servers[i].Close()
		}
	}
	tp.serving.Wait()
	if tp.prim != nil {
		tp.prim.Close()
	}
	for _, t := range tp.transports {
		t.CloseIdleConnections()
	}
	for _, n := range tp.nodes {
		if n.db != nil {
			n.db.Close()
		}
	}
}

// freshDir makes an empty directory for one topology under workdir.
func freshDir(workdir string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, "topo-")
}
