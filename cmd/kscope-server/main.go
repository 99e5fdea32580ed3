// Command kscope-server runs Kaleidoscope's core server over a prepared
// storage directory, exposing the HTTP API browser-extension clients use:
//
//	GET  /api/tests/{id}            test info (description, questions, pages)
//	GET  /api/tests/{id}/task       crowdsourcing-platform posting payload
//	GET  /api/tests/{id}/pages/{page}/{file}   integrated-page resources
//	POST /api/tests/{id}/sessions   participant session upload
//	GET  /api/tests/{id}/results    concluded results (?quality=1 for QC)
//	GET  /metrics                   Prometheus-style serving-path metrics
//
// Every request is logged as one structured line (request id, route,
// status, latency) on stderr.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests for up to -drain, then flushes and closes the store —
// an acknowledged session upload is never dropped by a restart.
//
// Prepare storage first with: kscope prepare -params ... -sites ... -store DIR
//
// Three more modes share the binary (internal/deploy assembles all four
// and rejects contradictory flag sets); the router's -shards list is
// described at parseShards:
//
//	primary:  kscope-server -store DIR -replicate-to http://standby:8781
//	standby:  kscope-server -store DIR2 -replica-of http://primary:8780
//	router:   kscope-server -shards "http://s0:8780|http://s0b:8781,http://s1:8780"
//
// The primary streams every WAL append to the standby and acknowledges an
// upload only once the standby has durably applied it. The standby serves
// only the /repl/* replication
// surface and answers everything else 503 until SIGUSR1 promotes it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kaleidoscope/internal/deploy"
	"kaleidoscope/internal/guard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kscope-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kscope-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8780", "listen address")
	storeDir := fs.String("store", "", "storage directory prepared by kscope (required)")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	drain := fs.Duration("drain", 10*time.Second, "max time to wait for in-flight requests on shutdown")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a full request (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "max time to write a response (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time (0 disables)")
	maxInflight := fs.Int("max-inflight", 64, "admission-control base concurrency K (uploads get K, reads 4K, results K/4; 0 disables the guard)")
	rate := fs.Float64("rate", 0, "per-worker request rate limit in req/s (0 disables rate limiting)")
	burst := fs.Float64("burst", 0, "per-worker rate-limit burst (default 2x rate)")
	shards := fs.String("shards", "", "run as the sharded deployment's routing tier over this comma-separated shard list (primary[|standby] URLs); mutually exclusive with -store and the replication flags")
	var cfg deploy.Config
	fs.StringVar(&cfg.ReplicateTo, "replicate-to", "", "warm-standby URL to stream the WAL to (makes this node the primary)")
	fs.StringVar(&cfg.ReplicaOf, "replica-of", "", "primary URL this node stands by for (runs the /repl/* surface only; SIGUSR1 promotes)")
	fs.Uint64Var(&cfg.Epoch, "epoch", 1, "replication epoch this primary serves in (a promoted standby starts past its predecessor)")
	fs.Uint64Var(&cfg.MaxLag, "repl-max-lag", 0, "report not-ready on /readyz when the standby trails more than this many frames (0 disables)")
	fs.Float64Var(&cfg.EarlyStopAlpha, "earlystop-alpha", 0, "adaptive sequential early stopping: family-wise false-stop probability to certify; decided tests stop accepting sessions (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Store = *storeDir
	cfg.Guard = guardConfig(*maxInflight, *rate, *burst)
	if !*quiet {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *shards != "" {
		var err error
		if cfg.Shards, err = parseShards(*shards); err != nil {
			return err
		}
	}
	d, err := deploy.Open(cfg)
	if err != nil {
		return err
	}
	// Runs after the drain: flushes the WAL and closes the store.
	defer func() {
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "kscope-server:", err)
		}
	}()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Handler:           d,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.ReplicaOf != "" {
		// Registered before the listener answers: an unhandled SIGUSR1
		// would kill the process the controller meant to promote.
		promote := make(chan os.Signal, 1)
		signal.Notify(promote, syscall.SIGUSR1)
		defer signal.Stop(promote)
		go promoteOnSignal(ctx, promote, d)
	}
	if *shards != "" {
		fmt.Printf("kscope-server routing tier listening on http://%s (shards: %s)\n", ln.Addr(), *shards)
	} else {
		fmt.Printf("kscope-server listening on http://%s (store: %s)\n", ln.Addr(), *storeDir)
	}
	return serve(ctx, httpServer, ln, *drain)
}

// serve runs srv on ln until ctx is cancelled (SIGINT/SIGTERM in
// production), then shuts down gracefully: the listener closes, in-flight
// requests get up to drain to complete, and only then does serve return —
// so the deferred store cleanup always sees a quiesced server.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	fmt.Printf("kscope-server: shutting down, draining in-flight requests (max %s)\n", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain deadline exceeded: cut the stragglers loose.
		srv.Close()
		<-errCh
		return fmt.Errorf("drain incomplete after %s: %w", drain, err)
	}
	<-errCh // srv.Serve has returned http.ErrServerClosed
	return nil
}

// guardConfig maps the -max-inflight/-rate/-burst flag trio onto a guard
// configuration; a non-positive max-inflight disables the guard entirely
// (the pre-guard serving behavior).
func guardConfig(maxInflight int, rate, burst float64) *guard.Config {
	if maxInflight <= 0 {
		return nil
	}
	cfg := &guard.Config{MaxInflight: maxInflight, Rate: rate, Burst: burst}
	if rate > 0 && burst <= 0 {
		cfg.Burst = 2 * rate
	}
	return cfg
}

// promoteOnSignal waits for SIGUSR1 — the failover controller's promote
// signal — and turns the standby into the primary in place, on the same
// listener. From that moment the old primary is fenced: every replication
// frame it sends carries its stale epoch and is rejected, and its own API
// answers writes with 503 + X-Kscope-Fenced so clients fail over.
func promoteOnSignal(ctx context.Context, promote <-chan os.Signal, d *deploy.Deployment) {
	select {
	case <-promote:
	case <-ctx.Done():
		return
	}
	epoch, err := d.Promote()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kscope-server: promotion failed:", err)
		return
	}
	fmt.Printf("kscope-server: promoted to primary at epoch %d\n", epoch)
}
