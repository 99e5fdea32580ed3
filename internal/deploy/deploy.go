// Package deploy is the one place that knows how a Kaleidoscope process is
// put together: which of document store, blob store, overload guard,
// sequential engine, replication stream, request middleware and shard
// router a mode needs, in what order they are built, and in what order
// they close. cmd/kscope-server maps its flags onto a Config and serves
// the result; internal/testbed starts several as hosts on one socketless
// netsim.Link.
//
// A Config selects one of four modes:
//
//	plain node   Store                   serves the full API from Store
//	primary      Store + ReplicateTo     same, every WAL append shipped to a standby
//	standby      Store + ReplicaOf       /repl/* only (503 otherwise) until Promote
//	router       Shards                  owns no data; proxies and merges
//
// Replication covers the session/test database (the WAL); the integrated
// page blobs are prepared content — provision both nodes of a pair with
// the same `kscope prepare` output.
package deploy

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
)

// Config describes one process. The first block is what kscope-server's
// flags say (each field names its flag); the second is what a harness
// swaps underneath the same assembly, and the binary leaves it zero.
type Config struct {
	Store          string        // -store: documents under Store/db, page blobs under Store/blobs
	Shards         []shard.Spec  // -shards: run as the routing tier over these shards
	ReplicateTo    string        // -replicate-to: standby URL; makes this node the primary
	ReplicaOf      string        // -replica-of: primary URL; makes this node the warm standby
	Epoch          uint64        // -epoch: the term a primary mints frames in
	MaxLag         uint64        // -repl-max-lag: /readyz not-ready past this many unacked frames
	Guard          *guard.Config // -max-inflight/-rate/-burst; nil serves unguarded
	EarlyStopAlpha float64       // -earlystop-alpha; 0 runs no sequential engine
	Logger         *slog.Logger  // per-request log lines; nil under -quiet

	// DB, when set, is an open store a plain node serves instead of
	// opening Store/db (a memory store cannot be reopened). The node owns
	// it from then on: Close closes it.
	DB *store.DB
	// Blobs, when set, serves page files instead of Store/blobs.
	Blobs *store.BlobStore
	// StoreOptions apply wherever this process opens a store: sync
	// policy, a fault-injecting filesystem.
	StoreOptions []store.Option
	// Link, when set, supplies the transport of each outbound link this
	// process dials — a primary's replication stream, a router's hop to
	// each node — keyed by the peer's URL. The chaos-injection seam.
	Link func(peerURL string) http.RoundTripper
	// ShipTimeout and RetryInterval tune a primary's stream; RouterPolicy
	// a router's retries. Zero keeps each package's default.
	ShipTimeout, RetryInterval time.Duration
	RouterPolicy               failover.Policy
}

// Validate rejects contradictory modes before anything opens or listens.
// A standby does not dial ReplicaOf (the primary pushes); the field names
// the expected primary for the operator and keeps the topology explicit.
func (c Config) Validate() error {
	if c.EarlyStopAlpha != 0 && !(c.EarlyStopAlpha > 0 && c.EarlyStopAlpha < 1) {
		return fmt.Errorf("-earlystop-alpha %v: need 0 < alpha < 1", c.EarlyStopAlpha)
	}
	if c.ReplicateTo != "" && c.ReplicaOf != "" {
		return errors.New("-replicate-to and -replica-of are mutually exclusive: a node is either the primary or the warm standby")
	}
	replicated := c.ReplicateTo != "" || c.ReplicaOf != ""
	if len(c.Shards) > 0 {
		// The routing tier owns no store and runs no engine of its own;
		// storage-node settings on a router are an operator mistake, not
		// something to silently ignore.
		switch {
		case c.Store != "" || c.DB != nil:
			return errors.New("-shards and -store are mutually exclusive: the router owns no storage (point -shards at storage-backed nodes)")
		case replicated:
			return errors.New("-shards and -replicate-to/-replica-of are mutually exclusive: replication is per shard, not on the router")
		case c.EarlyStopAlpha != 0:
			return errors.New("-shards and -earlystop-alpha are mutually exclusive: the sequential engine needs a full session stream and runs on storage nodes")
		}
		return nil
	}
	if replicated && c.DB != nil {
		return errors.New("a replicated node opens its own store from -store: the WAL it ships and the directory it is promoted over are files")
	}
	if c.Store == "" && c.DB == nil {
		return errors.New("-store is required")
	}
	return nil
}

// Serving is the storage-backed half of a process: what a plain node and a
// primary have from Open on, and a standby from Promote on.
type Serving struct {
	DB     *store.DB
	Server *server.Server
	Guard  *guard.Guard // nil when Config.Guard was
}

// Deployment is one assembled process. It is the http.Handler to listen
// with; Close releases everything Open and Promote acquired.
type Deployment struct {
	// Registry holds every metric of this process (served at /metrics).
	Registry *obs.Registry
	// Primary is the shipping half of a primary; Router the ring and
	// proxy of a router. Nil in the other modes.
	Primary *replica.Primary
	Router  *shard.Router

	cfg      Config
	handler  http.Handler
	follower *replica.Follower // standby only
	node     *replica.Node     // standby only

	mu      sync.Mutex
	serving *Serving
	closed  bool
}

// Open validates cfg and assembles the process it describes.
func Open(cfg Config) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{cfg: cfg, Registry: obs.NewRegistry()}
	var err error
	switch {
	case len(cfg.Shards) > 0:
		err = d.openRouter()
	case cfg.ReplicaOf != "":
		err = d.openStandby()
	default:
		err = d.openNode()
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Deployment) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.handler.ServeHTTP(w, r) }

// Serving returns the node's store and server: nil on a router and on a
// standby that has not been promoted.
func (d *Deployment) Serving() *Serving {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.serving
}

func (d *Deployment) dbDir() string { return filepath.Join(d.cfg.Store, "db") }

// openRouter wires the routing tier: the consistent-hash router behind
// the same metrics/logging middleware every serving node uses.
func (d *Deployment) openRouter() error {
	rc := shard.Config{Shards: d.cfg.Shards, Policy: d.cfg.RouterPolicy, Registry: d.Registry}
	if d.cfg.Link != nil {
		rc.Transport = func(_, nodeURL string) http.RoundTripper { return d.cfg.Link(nodeURL) }
	}
	rt, err := shard.New(rc)
	if err != nil {
		return err
	}
	d.Router = rt
	d.handler = obs.Middleware(rt, d.cfg.Logger, d.Registry, server.RouteLabel)
	return nil
}

// openNode opens the store — replicated to the standby on a primary — and
// puts the serving stack over it.
func (d *Deployment) openNode() error {
	db := d.cfg.DB
	var extra []server.Option
	var err error
	switch {
	case d.cfg.ReplicateTo != "":
		var link http.RoundTripper // nil: http.DefaultTransport
		if d.cfg.Link != nil {
			link = d.cfg.Link(d.cfg.ReplicateTo)
		}
		d.Primary, err = replica.NewPrimary(replica.PrimaryConfig{
			FollowerURL:   d.cfg.ReplicateTo,
			Epoch:         d.cfg.Epoch,
			Transport:     link,
			ShipTimeout:   d.cfg.ShipTimeout,
			RetryInterval: d.cfg.RetryInterval,
			Registry:      d.Registry,
		})
		if err != nil {
			return err
		}
		if db, err = store.OpenBackend(store.Replicated(d.dbDir(), d.Primary), d.cfg.StoreOptions...); err != nil {
			d.Primary.Close()
			return err
		}
		d.Primary.Bind(db)
		extra = append(extra, server.WithReplication(d.Primary, d.cfg.MaxLag))
	case db == nil:
		if db, err = store.Open(d.dbDir(), d.cfg.StoreOptions...); err != nil {
			return err
		}
	}
	if d.handler, err = d.assemble(db, extra...); err != nil {
		if d.Primary != nil {
			d.Primary.Close()
		}
		db.Close()
	}
	return err
}

// openStandby wires the warm standby: a replica.Node serving /repl/* (and
// 503 otherwise) until Promote turns it into a full primary in place, on
// the same listener.
func (d *Deployment) openStandby() error {
	var err error
	d.follower, err = replica.NewFollower(replica.FollowerConfig{Dir: d.dbDir(), Registry: d.Registry})
	if err != nil {
		return err
	}
	d.node = replica.NewNode(d.follower)
	d.handler = d.node
	return nil
}

// Promote fails a standby over: it bumps the epoch (fencing the old
// primary), opens the replicated store through the normal recovery path
// and starts serving the full API at the new epoch, which it returns. The
// deployment owns the promoted store like any other: Close closes it.
func (d *Deployment) Promote() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.node == nil:
		return 0, errors.New("deploy: only a standby (-replica-of) can be promoted")
	case d.closed:
		return 0, errors.New("deploy: promote after close")
	}
	_, epoch, err := d.node.Promote(func(db *store.DB, epoch uint64) (http.Handler, error) {
		return d.assemble(db, server.WithEpoch(epoch))
	}, d.cfg.StoreOptions...)
	return epoch, err
}

// assemble builds the serving stack — blob store, guard, engine,
// core server, logging middleware — around an open database and records
// it as what this deployment serves and must close. The replication paths
// add their server options (epoch advertisement, fencing, lag-aware
// readiness) through extra. The caller is Open, before d is shared, or
// holds d.mu.
func (d *Deployment) assemble(db *store.DB, extra ...server.Option) (http.Handler, error) {
	blobs := d.cfg.Blobs
	if blobs == nil {
		var err error
		if blobs, err = store.OpenBlobStore(filepath.Join(d.cfg.Store, "blobs")); err != nil {
			return nil, err
		}
	}
	s := &Serving{DB: db}
	opts := []server.Option{server.WithObservability(d.Registry)}
	if d.cfg.Guard != nil {
		s.Guard = guard.New(*d.cfg.Guard)
		s.Guard.RegisterMetrics(d.Registry)
		opts = append(opts, server.WithGuard(s.Guard))
	}
	if d.cfg.EarlyStopAlpha > 0 {
		opts = append(opts, server.WithEarlyStop(server.EarlyStopConfig{Alpha: d.cfg.EarlyStopAlpha}))
	}
	var err error
	if s.Server, err = server.New(db, blobs, append(opts, extra...)...); err != nil {
		return nil, err
	}
	d.serving = s
	return obs.Middleware(s.Server, d.cfg.Logger, d.Registry, server.RouteLabel), nil
}

// Close runs after the listener has drained. It stops a primary's stream
// before the store closes, so the final appends still ship; saves a
// standby's position, so the primary streams on after a restart instead
// of sending a snapshot; and flushes and closes the store — the one the
// node opened, was handed, or was promoted over. The error is the
// standby's position save failing; the rest cannot fail.
func (d *Deployment) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.Primary != nil {
		d.Primary.Close()
	}
	if d.follower != nil {
		err = d.follower.Close()
	}
	if d.serving != nil {
		d.serving.DB.Close()
	}
	return err
}
