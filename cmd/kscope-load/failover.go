// -scenario failover is the replicated-WAL acceptance run: the zero-
// acked-loss chaos gate of the warm-standby design.
//
// Topology: a primary whose store replicates every WAL append to a warm
// standby, with a seeded ChaosTransport (drops, injected faults, profile
// delays) on BOTH the workers' connections and the replication link
// itself. The primary acknowledges an upload only after the standby has
// durably applied it (AckFollower).
//
// Mid-soak — after a third of the crowd has landed — the driver kills the
// primary the hard way: it severs every client connection, then promotes
// the standby. The deposed primary is deliberately left running as a
// zombie so the fencing protocol has to do its job: its next replication
// attempt carries a stale epoch, the promoted follower rejects it, and
// from then on the zombie answers writes 503 + X-Kscope-Fenced. Workers
// fail over by rotating their base-URL ring.
//
// The run fails unless:
//
//   - every worker's session lands (zero lost crowd members),
//   - every session acknowledged to a worker is present in the PROMOTED
//     node's store (zero acked loss across the failover),
//   - the server-produced statuses stay inside {200, 201, 409, 429, 503}
//     and every 429/503 carries Retry-After,
//   - the deposed primary provably rejects with a stale epoch
//     (Probe → ErrStaleEpoch, Fenced() true), and
//   - the promoted node's incremental results equal its from-scratch
//     oracle, raw and quality-controlled.
package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
)

// failoverRun carries the pieces the promotion hook hands back to the
// assertions that run after the fleet drains.
type failoverRun struct {
	mu       sync.Mutex
	srv      *server.Server // promoted node's core server
	db       *store.DB      // promoted node's store
	epoch    uint64
	err      error
	promoted bool
}

func failoverScenario(cfg config, out io.Writer) error {
	// Stage 0: prepare the study into the primary's store directory with a
	// plain directory backend — the exact layout `kscope prepare` writes —
	// so the replicated reopen exercises the real recovery path. The
	// static page blobs are prepared content, provisioned on both nodes
	// (here: one shared in-memory blob store).
	primDir, err := os.MkdirTemp("", "kscope-failover-primary-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(primDir)
	follDir, err := os.MkdirTemp("", "kscope-failover-standby-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(follDir)
	blobs := store.NewBlobStore()
	if err := prepareStudy(primDir, blobs); err != nil {
		return err
	}

	// Stage 1: the warm standby — follower state machine plus the node
	// shell that answers 503 for application traffic until promoted.
	var statuses statusTable
	freg := obs.NewRegistry()
	follower, err := replica.NewFollower(replica.FollowerConfig{Dir: follDir, Registry: freg})
	if err != nil {
		return err
	}
	node := replica.NewNode(follower)
	standbyTS := httptest.NewServer(statuses.wrap(node))
	defer standbyTS.Close()

	// Stage 2: the primary, reopened over the replicated backend. The
	// replication link gets its own seeded chaos — drops and delays on the
	// very stream the durability guarantee rides on. Because the database
	// already holds the prepared test documents, the first connect is
	// forced through snapshot catch-up before any tail frame ships.
	reg := obs.NewRegistry()
	replChaos, err := netsim.NewChaosTransport(http.DefaultTransport,
		chaosConfig(cfg), rand.New(rand.NewSource(cfg.seed+104729)))
	if err != nil {
		return err
	}
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		FollowerURL:   standbyTS.URL,
		Epoch:         1,
		Mode:          replica.AckFollower,
		Transport:     replChaos,
		ShipTimeout:   30 * time.Second,
		RetryInterval: 5 * time.Millisecond,
		Registry:      reg,
	})
	if err != nil {
		return err
	}
	defer prim.Close()
	db, err := store.OpenBackend(store.Replicated(primDir, prim))
	if err != nil {
		return err
	}
	defer db.Close()
	prim.Bind(db)
	srv, err := server.New(db, blobs, server.WithObservability(reg), server.WithReplication(prim, 0))
	if err != nil {
		return err
	}
	primTS := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer primTS.Close()

	// Stage 3: the crowd, with the standby in every worker's failover ring
	// and chaos on every worker's transport. The fail-over trigger rides
	// the fleet's progress hook: once a third of the workers have landed,
	// sever the primary's connections and promote the standby.
	rng := rand.New(rand.NewSource(cfg.seed))
	popFn := crowd.OpenCrowd
	if cfg.trusted {
		popFn = crowd.TrustedCrowd
	}
	pop, err := popFn(cfg.workers, rng)
	if err != nil {
		return err
	}
	run := &failoverRun{}
	var acked []string
	var ackedMu sync.Mutex
	var killOnce sync.Once
	killAt := cfg.workers / 3
	if killAt < 1 {
		killAt = 1
	}
	clientReg := obs.NewRegistry()
	fleet := &extension.Fleet{
		BaseURL:      primTS.URL,
		FailoverURLs: []string{standbyTS.URL},
		Answer:       extension.AnswerFontSize(),
		Seed:         cfg.seed,
		Concurrency:  cfg.concurrency,
		Policy:       failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond},
		Registry:     clientReg,
		Transport: func(i int) http.RoundTripper {
			t, err := netsim.NewChaosTransport(http.DefaultTransport,
				chaosConfig(cfg), rand.New(rand.NewSource(cfg.seed+int64(i)+7919)))
			if err != nil {
				panic(err) // only reachable with a nil rng
			}
			return t
		},
		OnResult: func(done int, res extension.WorkerResult) {
			if res.Err == nil {
				ackedMu.Lock()
				acked = append(acked, res.WorkerID)
				ackedMu.Unlock()
			}
			if done >= killAt {
				killOnce.Do(func() {
					// The kill: every in-flight client connection dies
					// mid-request. The listener stays up — the zombie must
					// be fenced by the protocol, not by our tidy shutdown.
					primTS.CloseClientConnections()
					pdb, epoch, err := node.Promote(func(pdb *store.DB, epoch uint64) (http.Handler, error) {
						psrv, err := server.New(pdb, blobs,
							server.WithObservability(freg), server.WithEpoch(epoch))
						if err != nil {
							return nil, err
						}
						run.mu.Lock()
						run.srv = psrv
						run.mu.Unlock()
						return obs.Middleware(psrv, nil, freg, server.RouteLabel), nil
					})
					run.mu.Lock()
					run.db, run.epoch, run.err, run.promoted = pdb, epoch, err, err == nil
					run.mu.Unlock()
				})
			}
		},
	}
	report, err := fleet.Run(testID, pop)
	if err != nil {
		return err
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.db != nil {
		defer run.db.Close()
	}

	fmt.Fprintf(out, "kscope-load failover: %d workers (seed %d, concurrency %d), primary killed after %d, chaos drop=%.0f%% fault=%.0f%%\n",
		cfg.workers, cfg.seed, cfg.concurrency, killAt, cfg.drop*100, cfg.fault*100)
	fmt.Fprintf(out, "sessions: %d completed, %d failed, %d client retries\n",
		report.Completed, report.Failed, report.Retries)
	fmt.Fprintf(out, "replication: %d frames shipped, %d snapshots, %d send errors; follower applied %d frames, %d stale rejects, %d failovers\n",
		reg.Counter("kscope_repl_frames_shipped").Value(),
		reg.Counter("kscope_repl_snapshots_sent").Value(),
		reg.Counter("kscope_repl_send_errors").Value(),
		freg.Counter("kscope_repl_frames_applied").Value(),
		freg.Counter("kscope_repl_stale_rejects").Value(),
		freg.Counter("kscope_repl_failovers").Value())
	statuses.print(out)

	// Gate 1: promotion itself worked and every worker landed somewhere.
	if !run.promoted {
		if run.err != nil {
			return fmt.Errorf("promotion failed: %w", run.err)
		}
		return fmt.Errorf("fleet finished before the failover triggered (%d workers, kill at %d)", cfg.workers, killAt)
	}
	if report.Failed > 0 {
		return fmt.Errorf("%d of %d workers failed to complete: %v", report.Failed, cfg.workers, report.Errs)
	}

	// Gate 2: the documented status matrix, Retry-After included.
	if bad := statuses.unexpected(http.StatusTooManyRequests, http.StatusServiceUnavailable); len(bad) > 0 {
		return fmt.Errorf("server produced unexpected statuses: %v", bad)
	}
	if n := statuses.retryAfterViolations(); n > 0 {
		return fmt.Errorf("%d shed responses (429/503) lacked Retry-After", n)
	}

	// Gate 3: zero acked loss. Every session a worker saw acknowledged
	// must exist in the promoted node's store — acknowledged-then-lost is
	// the one failure the AckFollower design exists to rule out.
	responses := run.db.Collection(aggregator.ResponsesCollection)
	for _, workerID := range acked {
		if _, err := responses.Get(testID + "/" + workerID); err != nil {
			return fmt.Errorf("ACKED LOSS: worker %s was acknowledged but is absent from the promoted store: %w", workerID, err)
		}
	}
	fmt.Fprintf(out, "acked-loss audit: all %d acknowledged sessions present on the promoted node (epoch %d)\n",
		len(acked), run.epoch)

	// Gate 4: the deposed primary is provably fenced. Probe pushes an
	// empty frame batch at the promoted follower; the stale epoch must be
	// rejected and the primary must record its own deposition.
	if err := prim.Probe(); !errors.Is(err, replica.ErrStaleEpoch) {
		return fmt.Errorf("deposed primary's probe returned %v, want ErrStaleEpoch", err)
	}
	if !prim.Fenced() {
		return fmt.Errorf("deposed primary does not report itself fenced after the stale-epoch rejection")
	}
	if rejects := freg.Counter("kscope_repl_stale_rejects").Value(); rejects == 0 {
		return fmt.Errorf("promoted follower recorded no stale-epoch rejects; the fencing path never fired")
	}
	fmt.Fprintf(out, "fencing: deposed primary (epoch %d) rejected with ErrStaleEpoch and fenced\n", prim.Epoch())

	// Gate 5: the promoted node's results are oracle-equal.
	return verifyOracle(out, standbyTS.URL, run.srv)
}

// chaosConfig maps the shared chaos flags onto one transport config; the
// failover scenario uses it for both the worker and replication links.
func chaosConfig(cfg config) netsim.ChaosConfig {
	c := netsim.ChaosConfig{DropRate: cfg.drop, FaultRate: cfg.fault}
	if cfg.delayScale > 0 {
		p := netsim.Profile4G
		c.Delay = &p
		c.DelayScale = cfg.delayScale
	}
	return c
}

// prepareStudy writes the soak fixture into dir through a plain directory
// store — the state a primary has before replication is switched on.
func prepareStudy(dir string, blobs *store.BlobStore) error {
	db, err := store.Open(dir)
	if err != nil {
		return err
	}
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		db.Close()
		return err
	}
	if _, err := agg.Prepare(loadTest(), loadSites(), nil); err != nil {
		db.Close()
		return err
	}
	db.Close()
	return nil
}
