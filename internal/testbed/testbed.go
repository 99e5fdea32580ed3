// Package testbed starts a whole Kaleidoscope deployment with no sockets —
// the same internal/deploy assembly kscope-server runs, once per process of
// the topology, each a host on one netsim.Link — drives seeded crowds
// through its one front door, injects the faults a run schedules, and
// applies one standard Audit to whatever is left standing.
// cmd/kscope-load's scenarios are a Topology, a crowd, a fault trigger and
// their own gates on top of it.
//
// Everything random derives from Run.Seed: crowd populations, worker RNG
// streams, every link's chaos transport (link) and the victim of a kill
// (HomeVictim). Report prints the fault schedule, so a failed run replays
// from its seed and its output.
package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/deploy"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// StoreKind is where every storage node of a topology keeps its documents.
type StoreKind int

const (
	Memory   StoreKind = iota // store.OpenMemory
	Dir                       // a temp directory in `kscope prepare`'s layout
	FaultDir                  // Dir behind Bed.Disk, a fault-injecting filesystem
)

// Topology is the shape of a deployment.
type Topology struct {
	// Shards is the number of shards behind a consistent-hash router; 0
	// runs one node (or pair) with no router in front.
	Shards int
	// Replicated gives every node a warm standby it ships its WAL to,
	// acknowledging a write only once the standby applied it. Needs Dir.
	Replicated     bool
	Store          StoreKind
	EarlyStopAlpha float64       // 0: no sequential engine
	Guard          *guard.Config // nil: no admission control
}

// Run is what makes one run of a topology reproducible.
type Run struct {
	Seed int64
	// Chaos rides every link — worker to front door, router to node,
	// primary to standby. The zero value is a clean network.
	Chaos netsim.ChaosConfig
	// Retries is the budget of every tier that retries: workers, the
	// router, the bed's own experimenter.
	Retries int
	// PollEvery makes every PollEvery-th acknowledgement of the run fetch
	// its test's /results, for the read-your-acks check (0: never).
	PollEvery int
}

// Fixture is a test provisioned on every shard before the front door
// opens; Audit covers these. Tests a scenario adds with Prepare and
// deletes itself (a campaign's tenants) are audited by their owner, with
// AuditTest.
type Fixture struct {
	Test  *params.Test
	Sites map[string]*webgen.Site
}

// pair is one shard: the node that started as primary (or the only node)
// and, when replicated, its standby. After KillAndPromote the zombie is
// still served and the standby is what Node returns.
type pair struct {
	primary, standby *deploy.Deployment
	cfg              deploy.Config // the primary's, for Restart
	host             string        // the primary's, on the bed's link
	epoch            uint64        // 0 until promoted
}

// Bed is a running topology.
type Bed struct {
	Top Topology
	Run Run
	// URLs is the front door as a client's failover ring sees it: the
	// router, or the node followed by its standby.
	URLs []string
	// Blobs holds the prepared page files, shared by every node (prepared
	// content is provisioned fleet-wide; replication covers the WAL).
	Blobs *store.BlobStore
	// Disk is the filesystem under every FaultDir store.
	Disk *store.FaultFS
	// Fixtures are the tests Start provisioned; Audit covers them.
	Fixtures []Fixture
	// Client reaches every process over a clean link: the experimenter's
	// own reads and probes, which test the deployment, not the chaos.
	Client *http.Client

	net      netsim.Link // every process of the topology is a host on it
	shards   []*pair
	router   *deploy.Deployment
	dirs     []string
	statuses statusTable
	reader   failover.Loop // the bed's experimenter: polls and audits read through it

	mu          sync.Mutex
	links       []*netsim.ChaosTransport
	routerLinks int
	acks        map[string][]string // test id -> acknowledged worker ids
	ackCount    int
	faults      []string // the fault schedule, as it happened
	crowds      []crowdRun
	polls       int
	checked     int // polls that could be held to read-your-acks
	pollErrs    []error
}

// Start provisions the fixtures and brings the topology up, standbys
// first. The caller Closes the bed.
func Start(top Topology, run Run, fixtures ...Fixture) (*Bed, error) {
	if top.Replicated && top.Store == Memory {
		return nil, errors.New("testbed: a replicated topology needs a directory store: the WAL it ships is a file")
	}
	b := &Bed{Top: top, Run: run, Blobs: store.NewBlobStore(), Fixtures: fixtures, acks: make(map[string][]string)}
	b.Client = &http.Client{Transport: &b.net, Timeout: 30 * time.Second}
	if top.Store == FaultDir {
		b.Disk = store.NewFaultFS()
	}
	if err := b.start(); err != nil {
		b.Close()
		return nil, err
	}
	b.reader = failover.Loop{Ring: failover.NewRing(b.URLs...), Policy: b.policy(50 * time.Millisecond)}
	return b, nil
}

func (b *Bed) start() error {
	cfgs := make([]deploy.Config, max(b.Top.Shards, 1))
	if err := b.provision(cfgs); err != nil {
		return err
	}
	specs := make([]shard.Spec, len(cfgs))
	for i := range specs {
		specs[i].Name = fmt.Sprintf("shard-%d", i)
		if err := b.startShard(i, cfgs[i], &specs[i]); err != nil {
			return fmt.Errorf("testbed: shard %d: %w", i, err)
		}
	}
	if b.Top.Shards == 0 {
		b.URLs = []string{specs[0].Primary}
		if specs[0].Standby != "" {
			b.URLs = append(b.URLs, specs[0].Standby)
		}
		return nil
	}
	// Workers talk only to the router, so the statuses it answers are the
	// deployment's status matrix.
	var err error
	var url string
	b.router, url, err = b.serve("router", deploy.Config{Shards: specs, RouterPolicy: b.policy(50 * time.Millisecond),
		Link: func(string) http.RoundTripper { return b.link(routerLink, 0, 0) }}, true)
	b.URLs = []string{url}
	return err
}

// policy is the retry policy of every tier of a run; the cap keeps a
// shedding node's Retry-After: 1 from stretching a smoke run by seconds.
func (b *Bed) policy(maxRetryAfter time.Duration) failover.Policy {
	return failover.Policy{Retries: b.Run.Retries, Backoff: 2 * time.Millisecond, MaxRetryAfter: maxRetryAfter}
}

// WorkerPolicy is what a participant's client retries with.
func (b *Bed) WorkerPolicy() failover.Policy { return b.policy(100 * time.Millisecond) }

// serve opens one process and serves it as host on the bed's link,
// returning its URL; a front-door process counts the statuses it answers.
func (b *Bed) serve(host string, cfg deploy.Config, front bool) (*deploy.Deployment, string, error) {
	d, err := deploy.Open(cfg)
	if err != nil {
		return nil, "", err
	}
	var h http.Handler = d
	if front {
		h = b.statuses.wrap(h)
	}
	return d, b.net.Serve(host, h), nil
}

// provision gives every shard its store, holding the fixtures: a memory
// store its node keeps, or a directory in the layout `kscope prepare`
// leaves, written through a plain directory store and closed again so the
// node's own open — replicated, fault-injected — goes through the real
// recovery path.
func (b *Bed) provision(cfgs []deploy.Config) error {
	dbs := make([]*store.DB, len(cfgs))
	for i := range cfgs {
		cfgs[i] = deploy.Config{Blobs: b.Blobs, Guard: b.Top.Guard, EarlyStopAlpha: b.Top.EarlyStopAlpha}
		if b.Top.Store == Memory {
			cfgs[i].DB = store.OpenMemory()
			dbs[i] = cfgs[i].DB
			continue
		}
		dir, err := b.tempDir()
		if err != nil {
			return err
		}
		cfgs[i].Store = dir
		if dbs[i], err = store.Open(filepath.Join(dir, "db")); err != nil {
			return err
		}
		defer dbs[i].Close() // before the node reopens it
		if b.Disk != nil {
			cfgs[i].StoreOptions = []store.Option{store.WithFileSystem(b.Disk)}
		}
	}
	for _, f := range b.Fixtures {
		if _, err := b.prepare(dbs, f.Test, f.Sites, nil); err != nil {
			return fmt.Errorf("testbed: preparing %s: %w", f.Test.TestID, err)
		}
	}
	return nil
}

// Prepare adds a test to the running deployment, as an experimenter's
// Prepare does: once, into the shared blob store, with its test and page
// documents written to every shard's current store.
func (b *Bed) Prepare(test *params.Test, sites map[string]*webgen.Site, controls []aggregator.ControlPair) (*aggregator.Prepared, error) {
	return b.prepare(b.Stores(), test, sites, controls)
}

// prepare runs the aggregator once, on a scratch store, and copies the
// documents it wrote into every db — pages before the test document, so no
// shard shows the test before all of it.
func (b *Bed) prepare(dbs []*store.DB, test *params.Test, sites map[string]*webgen.Site, controls []aggregator.ControlPair) (*aggregator.Prepared, error) {
	scratch := store.OpenMemory()
	defer scratch.Close()
	agg, err := aggregator.New(scratch, b.Blobs)
	if err != nil {
		return nil, err
	}
	prep, err := agg.Prepare(test, sites, controls)
	if err != nil {
		return nil, err
	}
	docs := scratch.Collection(aggregator.PagesCollection).FindEq("test_id", test.TestID)
	testDoc, err := scratch.Collection(aggregator.TestsCollection).Get(test.TestID)
	if err != nil {
		return nil, err
	}
	for _, db := range dbs {
		pages := db.Collection(aggregator.PagesCollection)
		for _, doc := range docs {
			if _, err := pages.Insert(doc); err != nil {
				return nil, err
			}
		}
		if _, err := db.Collection(aggregator.TestsCollection).Insert(testDoc); err != nil {
			return nil, err
		}
	}
	return prep, nil
}

// startShard starts shard i's node over its provisioned store — and, in a
// replicated topology, the standby before it — filling in spec's URLs.
// Without a router the shard's own processes are the front door.
func (b *Bed) startShard(i int, cfg deploy.Config, spec *shard.Spec) error {
	p := &pair{host: spec.Name + "-primary"}
	b.shards = append(b.shards, p)
	front := b.Top.Shards == 0
	if b.Top.Replicated {
		scfg := cfg
		var err error
		if scfg.Store, err = b.tempDir(); err != nil {
			return err
		}
		scfg.ReplicaOf = "the shard's primary"
		if p.standby, spec.Standby, err = b.serve(spec.Name+"-standby", scfg, front); err != nil {
			return err
		}
		// The store already holds the prepared documents, so the stream's
		// first contact is a snapshot catch-up before any tail frame.
		cfg.ReplicateTo, cfg.Epoch = spec.Standby, 1
		cfg.ShipTimeout, cfg.RetryInterval = 30*time.Second, 5*time.Millisecond
		cfg.Link = func(string) http.RoundTripper { return b.link(replLink, i, 0) }
	}
	var err error
	p.cfg = cfg
	p.primary, spec.Primary, err = b.serve(p.host, cfg, front)
	return err
}

func (b *Bed) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "kscope-testbed-*")
	if err == nil {
		b.dirs = append(b.dirs, dir)
	}
	return dir, err
}

// Close refuses new requests and waits for the running ones, then closes
// every process and removes the store directories. Safe on a half-started
// bed.
func (b *Bed) Close() {
	b.net.Close()
	procs := []*deploy.Deployment{b.router}
	for _, p := range b.shards {
		procs = append(procs, p.primary, p.standby)
	}
	for _, d := range procs {
		if d != nil {
			d.Close() // a standby's position save can fail only with its directory, which goes next
		}
	}
	for _, dir := range b.dirs {
		os.RemoveAll(dir)
	}
}

// Node is the deployment serving shard i now (shard 0 without a router):
// its promoted standby, or the node it started with. Front is the one
// behind the front door, whose registry holds the deployment-face request
// histograms.
func (b *Bed) Node(i int) *deploy.Deployment {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.shards[i]; p.epoch > 0 {
		return p.standby
	}
	return b.shards[i].primary
}

func (b *Bed) Front() *deploy.Deployment {
	if b.router != nil {
		return b.router
	}
	return b.Node(0)
}

// Stores is every shard's current store, in shard order.
func (b *Bed) Stores() []*store.DB {
	dbs := make([]*store.DB, len(b.shards))
	for i := range dbs {
		dbs[i] = b.Node(i).Serving().DB
	}
	return dbs
}

type linkKind int

const (
	workerLink linkKind = iota // crowd a's worker (or session) n
	replLink                   // shard a's replication stream
	routerLink                 // the router's n-th hop, in shard.New's wiring order (shard, then primary before standby)
)

// link is the one place a chaos transport is made: every link of a run
// gets its own stream over the bed's link, derived from the run seed and
// the link's place in the topology, and is counted into the run's chaos
// totals. A clean network gets the bed's link itself.
func (b *Bed) link(kind linkKind, a, n int) http.RoundTripper {
	c := b.Run.Chaos
	if c.DropRate == 0 && c.FaultRate == 0 && c.Delay == nil {
		return &b.net
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	seed := b.Run.Seed
	switch kind {
	case workerLink:
		seed += int64(a)*100_003 + int64(n) + 7919
	case replLink:
		seed += int64(a)*7907 + 104729
	case routerLink:
		b.routerLinks++
		seed += int64(b.routerLinks)*6037 + 4099
	}
	t, err := netsim.NewChaosTransport(&b.net, c, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err) // only reachable with a nil rng
	}
	b.links = append(b.links, t)
	return t
}

// HomeVictim picks the shard a kill should hit: by seed, among the shards
// some test is homed on (the owner of its content key), because a shard no
// test calls home serves no test info or page and so hides whatever a
// promotion breaks on the read path. It also returns the tests homed there.
func (b *Bed) HomeVictim(tests ...string) (victim int, homed []string) {
	if b.router == nil {
		return 0, tests
	}
	ring := b.router.Router.Ring()
	home := make(map[int][]string)
	for _, t := range tests {
		owner := ring.Owner(shard.TestKey(t))
		home[owner] = append(home[owner], t)
	}
	candidates := make([]int, 0, len(home))
	for s := range home {
		candidates = append(candidates, s)
	}
	sort.Ints(candidates)
	victim = candidates[rand.New(rand.NewSource(b.Run.Seed+15485863)).Intn(len(candidates))]
	return victim, home[victim]
}

// KillAndPromote kills shard i's primary the hard way — every request in
// flight to it severed — and promotes its standby. The deposed primary is
// left serving as a zombie, so it is the protocol that has to fence it,
// not a tidy shutdown; Audit then demands the proof.
func (b *Bed) KillAndPromote(i int) error {
	p := b.shards[i]
	if p.standby == nil {
		return fmt.Errorf("testbed: shard %d has no standby to promote", i)
	}
	b.net.Sever(p.host)
	epoch, err := p.standby.Promote()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.faults = append(b.faults, fmt.Sprintf("kill shard %d: promotion FAILED: %v", i, err))
		return err
	}
	p.epoch = epoch
	b.faults = append(b.faults, fmt.Sprintf("kill shard %d's primary, promote its standby to epoch %d", i, epoch))
	return nil
}

// Restart stops shard i's node and opens it again over the same store
// directory, as kscope-server restarted on its -store does: the WAL replay
// and index rebuild path. Requests in flight to it are severed. Only an
// unreplicated directory node restarts.
func (b *Bed) Restart(i int) error {
	p := b.shards[i]
	if b.Top.Store == Memory || p.standby != nil {
		return fmt.Errorf("testbed: shard %d is not an unreplicated directory node", i)
	}
	b.net.Sever(p.host)
	p.primary.Close()
	d, _, err := b.serve(p.host, p.cfg, b.router == nil)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p.primary = d
	b.faults = append(b.faults, fmt.Sprintf("restart shard %d over its store", i))
	return nil
}

// NoteFault adds a scenario's own fault (a disk outage, a heal) to the
// printed schedule.
func (b *Bed) NoteFault(format string, args ...any) {
	b.mu.Lock()
	b.faults = append(b.faults, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}
