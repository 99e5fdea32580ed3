// Replication topology wiring for kscope-server.
//
// A two-node Kaleidoscope deployment runs one primary and one warm
// standby over the same prepared store layout:
//
//	primary:  kscope-server -store DIR -replicate-to http://standby:8781
//	standby:  kscope-server -store DIR2 -replica-of http://primary:8780
//
// The primary streams every WAL append to the standby and (in the default
// "follower" ack mode) acknowledges an upload only once the standby has
// durably applied it. The standby serves only the /repl/* replication
// surface and answers everything else 503 until promoted; SIGUSR1 (the
// failover controller's signal) promotes it — it bumps the epoch, opens
// the replicated store through the normal recovery path, and starts
// serving the full API as the new primary. From that moment the old
// primary is fenced: every replication frame it sends carries its stale
// epoch and is rejected, and its own API answers writes with 503 +
// X-Kscope-Fenced so clients fail over.
//
// Replication covers the session/test database (the WAL); the static
// integrated-page blobs are prepared content — provision both nodes with
// the same `kscope prepare` output.
package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
)

// replConfig is the flag-level replication topology.
type replConfig struct {
	replicateTo string // follower URL; non-empty makes this node a primary
	replicaOf   string // primary URL; non-empty runs this node as the warm standby
	epoch       uint64 // primary: epoch to serve in
	ackMode     string // "local" or "follower"
	maxLag      uint64 // readyz not-ready past this many unacked frames (0 off)
}

// validate rejects contradictory topologies before anything opens. The
// standby does not dial rc.replicaOf (the primary pushes); the flag names
// the expected primary for the operator and keeps the topology explicit.
func (rc replConfig) validate() error {
	if rc.replicateTo != "" && rc.replicaOf != "" {
		return fmt.Errorf("-replicate-to and -replica-of are mutually exclusive: a node is either the primary or the warm standby")
	}
	if _, err := replica.ParseAckMode(rc.ackMode); rc.replicateTo != "" && err != nil {
		return err
	}
	return nil
}

// buildPrimary opens the store replicated to rc.replicateTo and returns the
// fully wired primary handler. The returned cleanup stops the replication
// stream before closing the database so the final appends still ship.
func buildPrimary(storeDir string, quiet bool, gcfg *guard.Config, rc replConfig) (http.Handler, func(), error) {
	mode, err := replica.ParseAckMode(rc.ackMode)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		FollowerURL: rc.replicateTo,
		Epoch:       rc.epoch,
		Mode:        mode,
		Registry:    reg,
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := store.OpenBackend(store.Replicated(filepath.Join(storeDir, "db"), prim))
	if err != nil {
		prim.Close()
		return nil, nil, err
	}
	prim.Bind(db)
	handler, cleanup, err := assembleHandler(db, storeDir, quiet, gcfg, reg,
		server.WithReplication(prim, rc.maxLag))
	if err != nil {
		prim.Close()
		db.Close()
		return nil, nil, err
	}
	return handler, func() { prim.Close(); cleanup() }, nil
}

// buildStandby wires the warm standby: a replica.Node serving /repl/* (and
// 503 otherwise) until SIGUSR1 — the failover controller's promote signal —
// turns it into a full primary in place, on the same listener.
func buildStandby(storeDir string, quiet bool, gcfg *guard.Config) (http.Handler, func(), error) {
	if storeDir == "" {
		return nil, nil, fmt.Errorf("-store is required")
	}
	reg := obs.NewRegistry()
	follower, err := replica.NewFollower(replica.FollowerConfig{
		Dir:      filepath.Join(storeDir, "db"),
		Registry: reg,
	})
	if err != nil {
		return nil, nil, err
	}
	node := replica.NewNode(follower)

	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	go func() {
		<-promote
		_, epoch, err := node.Promote(func(db *store.DB, epoch uint64) (http.Handler, error) {
			h, _, err := assembleHandler(db, storeDir, quiet, gcfg, reg, server.WithEpoch(epoch))
			return h, err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kscope-server: promotion failed:", err)
			return
		}
		fmt.Printf("kscope-server: promoted to primary at epoch %d\n", epoch)
	}()
	return node, func() {
		signal.Stop(promote)
		// Graceful stop: save the position so the primary streams on after
		// the restart instead of sending a snapshot.
		if err := follower.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "kscope-server: saving replication position:", err)
		}
	}, nil
}
