// Command kscope-load is Kaleidoscope's acceptance harness: seeded,
// deterministic crowds pushed through the real HTTP stack — test-info
// download, integrated-page fetches, local replay, answering, session
// upload — against a whole deployment on one socketless netsim.Link, with
// fault injection (dropped connections, injected 5xx, profile delays) on
// every link of it.
//
// Each -scenario is a row of the scenarios table: a topology
// (internal/testbed starts it from the same assembly kscope-server runs), a
// crowd, a fault trigger, and the gates only that scenario has. Every run,
// whatever its row, ends in the testbed's standard audit and exits non-zero
// unless
//
//   - every worker's session landed,
//   - every acknowledged session is in its owning shard's current store,
//   - every /results answer read mid-run counted the sessions acknowledged
//     before it was asked,
//   - the front door answered only its documented status matrix, every
//     429/503 with Retry-After,
//   - every deposed primary is provably fenced, and
//   - the served results equal a from-scratch oracle over the union of the
//     stored sessions, raw and quality-controlled.
//
// A failing run prints its seed and fault schedule; the same arguments
// replay it.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kscope-load:", err)
		os.Exit(1)
	}
}

type config struct {
	scenario     string
	workers      int
	seed         int64
	concurrency  int
	drop, fault  float64
	delayScale   float64
	retries      int
	resultsEvery int
	trusted      bool
	batch        int
	tests        int
	perTest      int
	dedupFloor   int64
	maxP99       float64
	budget       int
	alpha        float64
}

// scenario is one acceptance run. drive pushes the scenario's traffic
// through the started bed, firing its fault on the way, and returns the
// gates only this scenario has; they are evaluated after the bed's report
// and standard audit, so a failing run has printed what it did.
type scenario struct {
	name     string
	summary  string
	topology func(cfg config) (testbed.Topology, error) // also rejects arguments the scenario cannot run with
	tenants  []string                                   // fixture tests provisioned on every shard
	allow    []int                                      // statuses beyond the topology's matrix
	drive    func(cfg config, bed *testbed.Bed, out io.Writer) (gates func() error, err error)
}

func fixed(top testbed.Topology) func(config) (testbed.Topology, error) {
	return func(config) (testbed.Topology, error) { return top, nil }
}

// pairs is the replicated topology of the kill scenarios: every node a
// primary shipping its WAL to a warm standby that acknowledges first.
func pairs(shards int) func(config) (testbed.Topology, error) {
	return fixed(testbed.Topology{Shards: shards, Replicated: true, Store: testbed.Dir})
}

var scenarios = []scenario{
	{name: "soak", summary: "steady crowd on one memory node",
		topology: fixed(testbed.Topology{}), tenants: []string{testID}, drive: soakDrive},
	{name: "throughput", summary: "batched uploads, sessions/sec report",
		topology: fixed(testbed.Topology{}), tenants: []string{testID}, drive: throughputDrive},
	{name: "overload", summary: "saturate admission control and force the store breaker open",
		topology: overloadTopology, tenants: []string{testID}, drive: overloadDrive},
	// failover is multinode with one shard and no router, not a sibling:
	// the workers' own failover ring is what the router's is there.
	{name: "failover", summary: "kill the replicated primary mid-soak, promote the warm standby, prove zero acked loss",
		topology: pairs(0), tenants: []string{testID}, drive: killDrive},
	// Three shards is the smallest fleet where losing one is a minority
	// and scatter/gather is a real merge, not a pair.
	{name: "multinode", summary: "sharded fleet behind the consistent-hash router: kill a tenant's home shard mid-soak, prove zero acked loss and oracle-equal merged results",
		topology: pairs(3), tenants: []string{"load-test-a", "load-test-b"}, drive: killDrive},
	// 404 is legitimate in the campaigns: deleting a tenant probes its
	// endpoints expecting it.
	{name: "campaign", summary: "multi-tenant lifecycle churn with worker abandonment, dedup accounting, and per-tenant oracles",
		topology: campaignTopology, allow: []int{http.StatusNotFound}, drive: campaignDrive},
	{name: "earlystop", summary: "adaptive sequential stopping: decided tests conclude early, the null tenant never does, realized cost beats fixed-n under a shared budget",
		topology: earlystopTopology, allow: []int{http.StatusNotFound}, drive: earlystopDrive},
}

func run(args []string, out io.Writer) error {
	var names, help []string
	for _, sc := range scenarios {
		names = append(names, sc.name)
		help = append(help, fmt.Sprintf("%s (%s)", sc.name, sc.summary))
	}
	fs := flag.NewFlagSet("kscope-load", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.scenario, "scenario", "soak", "load scenario: "+strings.Join(help, ", "))
	fs.IntVar(&cfg.workers, "workers", 25, "number of simulated crowd workers")
	fs.Int64Var(&cfg.seed, "seed", 1, "base seed; every worker stream, chaos link and victim choice derives from it")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "simultaneously running workers")
	fs.Float64Var(&cfg.drop, "drop", 0.1, "chaos: probability a request dies at the transport")
	fs.Float64Var(&cfg.fault, "fault", 0.1, "chaos: probability a request gets an injected 503")
	fs.Float64Var(&cfg.delayScale, "delay-scale", 0, "chaos: 4G profile delay multiplier (0 = no delay)")
	fs.IntVar(&cfg.retries, "retries", 12, "retry budget of every tier that retries")
	fs.IntVar(&cfg.resultsEvery, "results-every", 5, "poll the results endpoints every N acknowledged sessions (0 = off)")
	fs.BoolVar(&cfg.trusted, "trusted", false, "use the trusted crowd mix instead of the open one")
	fs.IntVar(&cfg.batch, "batch", 100, "throughput scenario: sessions per batched upload")
	fs.IntVar(&cfg.tests, "tests", 8, "campaign scenario: number of tenant tests churned through their lifecycle")
	fs.IntVar(&cfg.perTest, "per-test", 4, "campaign scenario: acked sessions each tenant must land")
	fs.Int64Var(&cfg.dedupFloor, "dedup-floor", 4096, "campaign scenario: fail if cross-tenant CAS dedup saves fewer bytes than this (0 = report only)")
	fs.Float64Var(&cfg.maxP99, "max-p99", 1000, "campaign scenario: fail if any serving endpoint's p99 exceeds this many milliseconds (0 = report only)")
	fs.IntVar(&cfg.budget, "budget", 60, "earlystop scenario: shared paid-session budget, deliberately below the combined fixed-n cost")
	fs.Float64Var(&cfg.alpha, "alpha", 0.05, "earlystop scenario: family-wise false-stop probability the sequential engine certifies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, sc := range scenarios {
		if sc.name == cfg.scenario {
			if err := sc.run(cfg, out); err != nil {
				return fmt.Errorf("%w\n(seed %d; the fault schedule is printed above; replay: kscope-load %s)", err, cfg.seed, strings.Join(args, " "))
			}
			return nil
		}
	}
	return fmt.Errorf("unknown -scenario %q (want %s)", cfg.scenario, strings.Join(names, ", "))
}

// run is the shape every scenario shares: topology up, traffic and fault,
// report, the standard audit, then the scenario's own gates.
func (sc scenario) run(cfg config, out io.Writer) error {
	top, err := sc.topology(cfg)
	if err != nil {
		return err
	}
	chaos := netsim.ChaosConfig{DropRate: cfg.drop, FaultRate: cfg.fault}
	if cfg.delayScale > 0 {
		p := netsim.Profile4G
		chaos.Delay, chaos.DelayScale = &p, cfg.delayScale
	}
	fixtures := make([]testbed.Fixture, len(sc.tenants))
	for i, id := range sc.tenants {
		fixtures[i] = testbed.Fixture{Test: fontSizeTest(id, "kscope-load "+sc.name+" study", 10, 5), Sites: fontSizeSites(5)}
	}
	bed, err := testbed.Start(top, testbed.Run{Seed: cfg.seed, Chaos: chaos, Retries: cfg.retries, PollEvery: cfg.resultsEvery}, fixtures...)
	if err != nil {
		return err
	}
	defer bed.Close()
	fmt.Fprintf(out, "kscope-load %s: seed %d, chaos drop=%.0f%% fault=%.0f%% delay-scale=%g on every link\n",
		sc.name, cfg.seed, cfg.drop*100, cfg.fault*100, cfg.delayScale)
	gates, err := sc.drive(cfg, bed, out)
	if err != nil {
		return err
	}
	bed.Report(out)
	if err := bed.Audit(out, sc.allow...); err != nil {
		return err
	}
	if gates == nil {
		return nil
	}
	return gates()
}

const testID = "load-test"

// fontSizeTest is the study every scenario runs: a two-version font-size
// comparison of the wiki article generated from contentSeed.
func fontSizeTest(id, description string, participants int, contentSeed int64) *params.Test {
	left, right := fmt.Sprintf("wiki-%d-12", contentSeed), fmt.Sprintf("wiki-%d-22", contentSeed)
	return &params.Test{
		TestID:          id,
		WebpageNum:      2,
		TestDescription: description,
		ParticipantNum:  participants,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: left, WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: right, WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
}

// fontSizeSites generates the two pages fontSizeTest compares. Tests built
// from the same contentSeed get byte-identical sites — the cross-tenant
// sharing the campaign's dedup gate measures.
func fontSizeSites(contentSeed int64) map[string]*webgen.Site {
	return map[string]*webgen.Site{
		fmt.Sprintf("wiki-%d-12", contentSeed): webgen.WikiArticle(webgen.WikiConfig{Seed: contentSeed, FontSizePt: 12}),
		fmt.Sprintf("wiki-%d-22", contentSeed): webgen.WikiArticle(webgen.WikiConfig{Seed: contentSeed, FontSizePt: 22}),
	}
}
