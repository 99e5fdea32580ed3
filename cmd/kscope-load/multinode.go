// -scenario multinode is the sharded-fleet acceptance run: the zero-
// acked-loss chaos gate of the consistent-hash routing tier.
//
// Topology: three shards, each a replicated pair — a primary whose WAL
// ships to a warm standby (AckFollower: uploads are acknowledged only
// once the standby durably applied them) — fronted by one shard.Router.
// Two tenant tests are provisioned on every shard; session ownership is
// partitioned across shards by test id + worker id on the ring. Chaos
// transports ride every link: worker -> router, router -> every shard
// node, and each shard's replication stream.
//
// Mid-soak — after a third of the combined crowd has landed — the driver
// kills shard 0's primary the hard way: it severs every client connection
// and promotes the standby, leaving the deposed primary listening as a
// zombie. The router must notice (fenced writes, stale epochs) and fail
// that ring segment over to the promoted standby; workers never see the
// failover beyond a retried request.
//
// The run fails unless:
//
//   - every worker of both tenants lands (zero lost crowd members, zero
//     ring-exhausted workers),
//   - the statuses the router answers stay inside {200, 201, 409, 429,
//     503} and every 429/503 carries Retry-After,
//   - every session acknowledged to a worker is present in its owning
//     shard's *current* store (zero acked loss across the shard kill),
//   - the zombie primary is provably fenced (Probe -> ErrStaleEpoch,
//     Fenced() true, a stale-epoch reject recorded by the promoted
//     follower),
//   - the router's merged /results for each tenant — raw scatter/gather
//     tally merge and the quality-controlled gather — DeepEqual a
//     single-node oracle holding the union of all shards' sessions, with
//     no partial-results marker.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
)

// multinodeShards is the fleet size: three shards is the smallest
// topology where losing one is a minority and scatter/gather is a real
// merge, not a pair.
const multinodeShards = 3

// multinodeTenants are the two tenant tests provisioned fleet-wide.
var multinodeTenants = []string{"load-test-a", "load-test-b"}

// mnShard is one shard's moving parts.
type mnShard struct {
	primDir   string
	primTS    *httptest.Server
	standbyTS *httptest.Server
	node      *replica.Node
	prim      *replica.Primary
	db        *store.DB // pre-kill primary store
	preg      *obs.Registry
	freg      *obs.Registry
}

// mnPromotion is what the kill hook hands the post-drain assertions.
type mnPromotion struct {
	mu       sync.Mutex
	db       *store.DB
	epoch    uint64
	err      error
	promoted bool
}

func multinode(cfg config, out io.Writer) error {
	// Stage 0: provision. Every shard primary gets both tenant studies
	// prepared into its own directory store (the "prepared content is
	// provisioned fleet-wide" doctrine); the static page blobs live in one
	// shared in-memory blob store, as in the failover scenario.
	blobs := store.NewBlobStore()
	shards := make([]*mnShard, multinodeShards)
	defer func() {
		for _, s := range shards {
			if s == nil {
				continue
			}
			if s.primTS != nil {
				s.primTS.Close()
			}
			if s.standbyTS != nil {
				s.standbyTS.Close()
			}
			if s.prim != nil {
				s.prim.Close()
			}
			if s.db != nil {
				s.db.Close()
			}
			if s.primDir != "" {
				os.RemoveAll(s.primDir)
			}
		}
	}()

	var statuses statusTable
	for i := range shards {
		s := &mnShard{}
		shards[i] = s
		var err error
		if s.primDir, err = os.MkdirTemp("", fmt.Sprintf("kscope-mn-prim%d-*", i)); err != nil {
			return err
		}
		follDir, err := os.MkdirTemp("", fmt.Sprintf("kscope-mn-stby%d-*", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(follDir)
		if err := prepareTenants(s.primDir, blobs); err != nil {
			return err
		}

		// The warm standby: follower state machine + the node shell that
		// answers 503 until promoted.
		s.freg = obs.NewRegistry()
		follower, err := replica.NewFollower(replica.FollowerConfig{Dir: follDir, Registry: s.freg})
		if err != nil {
			return err
		}
		s.node = replica.NewNode(follower)
		s.standbyTS = httptest.NewServer(s.node)

		// The primary, reopened over the replicated backend with chaos on
		// its replication link.
		s.preg = obs.NewRegistry()
		replChaos, err := netsim.NewChaosTransport(http.DefaultTransport,
			chaosConfig(cfg), rand.New(rand.NewSource(cfg.seed+int64(i)*7907+104729)))
		if err != nil {
			return err
		}
		if s.prim, err = replica.NewPrimary(replica.PrimaryConfig{
			FollowerURL:   s.standbyTS.URL,
			Epoch:         1,
			Mode:          replica.AckFollower,
			Transport:     replChaos,
			ShipTimeout:   30 * time.Second,
			RetryInterval: 5 * time.Millisecond,
			Registry:      s.preg,
		}); err != nil {
			return err
		}
		if s.db, err = store.OpenBackend(store.Replicated(s.primDir, s.prim)); err != nil {
			return err
		}
		s.prim.Bind(s.db)
		srv, err := server.New(s.db, blobs,
			server.WithObservability(s.preg), server.WithReplication(s.prim, 0))
		if err != nil {
			return err
		}
		s.primTS = httptest.NewServer(obs.Middleware(srv, nil, s.preg, server.RouteLabel))
	}

	// Stage 1: the routing tier. Every router -> node link gets its own
	// seeded chaos transport; the fleet talks only to the router, so the
	// statuses it answers ARE the deployment's status matrix (the status
	// table wraps the router's listener).
	specs := make([]shard.Spec, multinodeShards)
	for i, s := range shards {
		specs[i] = shard.Spec{
			Name:    fmt.Sprintf("shard-%d", i),
			Primary: s.primTS.URL,
			Standby: s.standbyTS.URL,
		}
	}
	rreg := obs.NewRegistry()
	var linkSeed int64
	router, err := shard.New(shard.Config{
		Shards:   specs,
		Policy:   failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond, MaxRetryAfter: 50 * time.Millisecond},
		Registry: rreg,
		Transport: func(string, string) http.RoundTripper {
			linkSeed++ // New() wires links in deterministic shard/node order
			t, err := netsim.NewChaosTransport(http.DefaultTransport,
				chaosConfig(cfg), rand.New(rand.NewSource(cfg.seed+linkSeed*6037+4099)))
			if err != nil {
				panic(err) // only reachable with a nil rng
			}
			return t
		},
	})
	if err != nil {
		return err
	}
	routerTS := httptest.NewServer(statuses.wrap(obs.Middleware(router, nil, rreg, server.RouteLabel)))
	defer routerTS.Close()

	// Stage 2: the kill switch. After a third of the combined crowd has
	// landed, sever shard 0's primary connections and promote its standby;
	// the listener stays up so the zombie must be fenced by the protocol.
	promo := &mnPromotion{}
	victim := shards[0]
	var totalDone atomic.Int64
	killAt := int64(len(multinodeTenants)*cfg.workers) / 3
	if killAt < 1 {
		killAt = 1
	}
	var killOnce sync.Once
	onResult := func(acked *[]string, ackedMu *sync.Mutex) func(int, extension.WorkerResult) {
		return func(_ int, res extension.WorkerResult) {
			if res.Err == nil && !res.Concluded {
				ackedMu.Lock()
				*acked = append(*acked, res.WorkerID)
				ackedMu.Unlock()
			}
			if totalDone.Add(1) >= killAt {
				killOnce.Do(func() {
					victim.primTS.CloseClientConnections()
					pdb, epoch, err := victim.node.Promote(func(pdb *store.DB, epoch uint64) (http.Handler, error) {
						psrv, err := server.New(pdb, blobs,
							server.WithObservability(victim.freg), server.WithEpoch(epoch))
						if err != nil {
							return nil, err
						}
						return obs.Middleware(psrv, nil, victim.freg, server.RouteLabel), nil
					})
					promo.mu.Lock()
					promo.db, promo.epoch, promo.err, promo.promoted = pdb, epoch, err, err == nil
					promo.mu.Unlock()
				})
			}
		}
	}

	// Stage 3: one fleet per tenant, running concurrently against the
	// router, chaos on every worker's transport.
	type tenantRun struct {
		testID string
		acked  []string
		mu     sync.Mutex
		report *extension.FleetReport
		err    error
	}
	runs := make([]*tenantRun, len(multinodeTenants))
	var wg sync.WaitGroup
	for ti, tid := range multinodeTenants {
		tr := &tenantRun{testID: tid}
		runs[ti] = tr
		rng := rand.New(rand.NewSource(cfg.seed + int64(ti)))
		popFn := crowd.OpenCrowd
		if cfg.trusted {
			popFn = crowd.TrustedCrowd
		}
		pop, err := popFn(cfg.workers, rng)
		if err != nil {
			return err
		}
		fleet := &extension.Fleet{
			BaseURL:     routerTS.URL,
			Answer:      extension.AnswerFontSize(),
			Seed:        cfg.seed + int64(ti)*59_999,
			Concurrency: cfg.concurrency,
			Policy:      failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond, MaxRetryAfter: 100 * time.Millisecond},
			Transport: func(i int) http.RoundTripper {
				t, err := netsim.NewChaosTransport(http.DefaultTransport,
					chaosConfig(cfg), rand.New(rand.NewSource(cfg.seed+int64(ti)*100_003+int64(i)+7919)))
				if err != nil {
					panic(err) // only reachable with a nil rng
				}
				return t
			},
			OnResult: onResult(&tr.acked, &tr.mu),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.report, tr.err = fleet.Run(tr.testID, pop)
		}()
	}
	wg.Wait()
	for _, tr := range runs {
		if tr.err != nil {
			return fmt.Errorf("tenant %s: %w", tr.testID, tr.err)
		}
	}
	promo.mu.Lock()
	defer promo.mu.Unlock()
	if promo.db != nil {
		defer promo.db.Close()
	}

	fmt.Fprintf(out, "kscope-load multinode: %d shards, %d tenants x %d workers (seed %d), shard-0 primary killed after %d, chaos drop=%.0f%% fault=%.0f%% on every link\n",
		multinodeShards, len(multinodeTenants), cfg.workers, cfg.seed, killAt, cfg.drop*100, cfg.fault*100)
	for _, tr := range runs {
		fmt.Fprintf(out, "tenant %s: %d completed, %d failed (%d ring-exhausted), %d client retries\n",
			tr.testID, tr.report.Completed, tr.report.Failed, tr.report.RingExhausted, tr.report.Retries)
	}
	fmt.Fprintf(out, "router: %d proxy retries, %d node failovers, %d partial results, %d segments exhausted\n",
		rreg.Counter("kscope_shard_proxy_retries_total").Value(),
		rreg.Counter("kscope_shard_failovers_total").Value(),
		rreg.Counter("kscope_shard_partial_results_total").Value(),
		rreg.Counter("kscope_shard_exhausted_total").Value())
	statuses.print(out)

	// Gate 1: the failover actually happened and every worker landed.
	if !promo.promoted {
		if promo.err != nil {
			return fmt.Errorf("promotion failed: %w", promo.err)
		}
		return fmt.Errorf("fleets finished before the shard kill triggered (kill at %d)", killAt)
	}
	for _, tr := range runs {
		if tr.report.Failed > 0 {
			return fmt.Errorf("tenant %s: %d of %d workers failed (%d ring-exhausted): %v",
				tr.testID, tr.report.Failed, cfg.workers, tr.report.RingExhausted, tr.report.Errs)
		}
	}

	// Gate 2: the deployment-face status matrix, Retry-After included.
	if bad := statuses.unexpected(http.StatusTooManyRequests, http.StatusServiceUnavailable); len(bad) > 0 {
		return fmt.Errorf("router produced unexpected statuses: %v", bad)
	}
	if n := statuses.retryAfterViolations(); n > 0 {
		return fmt.Errorf("%d shed responses (429/503) lacked Retry-After", n)
	}

	// Gate 3: zero acked loss. Every acknowledged session must be present
	// in the CURRENT store of the shard the ring routes it to — for shard
	// 0 that is the promoted standby's store, not the zombie's.
	currentDB := func(shardIdx int) *store.DB {
		if shardIdx == 0 {
			return promo.db
		}
		return shards[shardIdx].db
	}
	ring := router.Ring()
	ackedTotal := 0
	for _, tr := range runs {
		tr.mu.Lock()
		acked := append([]string(nil), tr.acked...)
		tr.mu.Unlock()
		ackedTotal += len(acked)
		for _, workerID := range acked {
			owner := ring.Owner(shard.SessionKey(tr.testID, workerID))
			responses := currentDB(owner).Collection(aggregator.ResponsesCollection)
			if _, err := responses.Get(tr.testID + "/" + workerID); err != nil {
				return fmt.Errorf("ACKED LOSS: tenant %s worker %s acknowledged but absent from owning shard %d: %w",
					tr.testID, workerID, owner, err)
			}
		}
	}
	fmt.Fprintf(out, "acked-loss audit: all %d acknowledged sessions present on their owning shards (shard-0 epoch %d)\n",
		ackedTotal, promo.epoch)

	// Gate 4: the zombie is provably fenced by epoch.
	if err := victim.prim.Probe(); !errors.Is(err, replica.ErrStaleEpoch) {
		return fmt.Errorf("zombie primary's probe returned %v, want ErrStaleEpoch", err)
	}
	if !victim.prim.Fenced() {
		return fmt.Errorf("zombie primary does not report itself fenced")
	}
	if rejects := victim.freg.Counter("kscope_repl_stale_rejects").Value(); rejects == 0 {
		return fmt.Errorf("promoted follower recorded no stale-epoch rejects; the fencing path never fired")
	}
	fmt.Fprintf(out, "fencing: shard-0 zombie (epoch %d) rejected with ErrStaleEpoch and fenced\n", victim.prim.Epoch())

	// Gate 5: per-tenant oracle equality. A fresh single-node server is
	// provisioned with both tenants and the union of every shard's stored
	// sessions; the router's merged /results (raw tally merge and the
	// quality-controlled session gather) must DeepEqual its from-scratch
	// conclusions, with no partial-results marker.
	oracleDB := store.OpenMemory()
	defer oracleDB.Close()
	oracleBlobs := store.NewBlobStore()
	agg, err := aggregator.New(oracleDB, oracleBlobs)
	if err != nil {
		return err
	}
	for _, tid := range multinodeTenants {
		if _, err := agg.Prepare(tenantTest(tid), loadSites(), nil); err != nil {
			return err
		}
	}
	oracleResponses := oracleDB.Collection(aggregator.ResponsesCollection)
	for i := range shards {
		responses := currentDB(i).Collection(aggregator.ResponsesCollection)
		for _, tid := range multinodeTenants {
			for _, doc := range responses.FindEq("test_id", tid) {
				if _, err := oracleResponses.InsertUnique(doc); err != nil {
					return fmt.Errorf("oracle union: shard %d doc %s: %w", i, doc.ID(), err)
				}
			}
		}
	}
	oracleSrv, err := server.New(oracleDB, oracleBlobs)
	if err != nil {
		return err
	}
	for _, tid := range multinodeTenants {
		for _, mode := range []struct {
			q     string
			useQC bool
		}{{"", false}, {"?quality=1", true}} {
			resp, err := http.Get(routerTS.URL + "/api/tests/" + tid + "/results" + mode.q)
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("merged results %s%s: status %d: %s", tid, mode.q, resp.StatusCode, body)
			}
			if resp.Header.Get(shard.PartialHeader) != "" {
				return fmt.Errorf("merged results %s%s marked partial after full recovery", tid, mode.q)
			}
			var got server.Results
			if err := json.Unmarshal(body, &got); err != nil {
				return fmt.Errorf("decoding merged results %s%s: %w", tid, mode.q, err)
			}
			want, err := oracleSrv.ConcludeScratch(tid, mode.useQC)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(&got, want) {
				return fmt.Errorf("MERGE DIVERGENCE %s (quality=%v):\nrouter %+v\noracle %+v", tid, mode.useQC, &got, want)
			}
		}
		fmt.Fprintf(out, "oracle: tenant %s merged results == single-node oracle (raw + quality)\n", tid)
	}
	return nil
}

// tenantTest clones the fixture study under a tenant-specific test id.
func tenantTest(id string) *params.Test {
	t := *loadTest()
	t.TestID = id
	return &t
}

// prepareTenants provisions both tenant studies into one shard's store
// directory, the layout `kscope prepare` writes.
func prepareTenants(dir string, blobs *store.BlobStore) error {
	db, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return err
	}
	for _, tid := range multinodeTenants {
		if _, err := agg.Prepare(tenantTest(tid), loadSites(), nil); err != nil {
			return err
		}
	}
	return nil
}
