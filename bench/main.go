// Command bench is Kaleidoscope's end-to-end benchmark: one seeded script
// of tester, experimenter and batch traffic, replayed closed-loop by two
// tester goroutines over real loopback listeners against four topologies
// (memory node, durable node, replicated pair, router + 3 shards), with a
// correctness audit and a traced second pass that splits a request's time
// by layer. See README.md for the metric catalogue.
//
//	go run -C bench . -seed 1                  every workload, both passes
//	go run -C bench . -workload node_durable -seed 7 -seconds 20 -trace 0
//	go run -C bench . -aa 3                    A/A check of the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the script is sized so
// that the timed part of one end-to-end pass takes about this long here.
const defaultSeconds = 20

// sizing is the script's size for one workload: fresh tests per round.
type sizing struct {
	flowPerRound, batchPerRound int
}

// sessionsAtDefault are the sessions (flow, batch) of a defaultSeconds
// pass, chosen per workload on the reference box so the flow part takes
// about two thirds of the time and a round's batch part lasts about a
// second (150-200 batches). Fixed work, not fixed time: the same seed and seconds always
// replay the same requests, however fast the code under test is.
var sessionsAtDefault = map[string][2]int{
	nodeMemory:     {19000, 80000},
	nodeDurable:    {10000, 80000},
	pairReplicated: {5000, 60000},
	fleetRouter3:   {5000, 80000},
}

func sizeFor(workload string, seconds float64) sizing {
	perRound := func(sessions int) int {
		n := int(math.Round(float64(sessions) * seconds / defaultSeconds / sessionsPerTest / rounds))
		if n < 1 {
			n = 1
		}
		return n
	}
	at := sessionsAtDefault[workload]
	return sizing{flowPerRound: perRound(at[0]), batchPerRound: perRound(at[1])}
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // the one size knob: every workload's counts scale with it alike
	setups  int     // 3; the tests set up once
	rounds  int     // 5; the tests replay fewer
	workdir string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	trace := fs.Int("trace", -1, "0: end-to-end pass, tracing off; 1: per-layer pass (traced + direct); default both")
	aa := fs.Int("aa", 0, "A/A mode: two alternating sets of N end-to-end runs of every workload, compared against the bounds")
	cfg := config{setups: setups, rounds: rounds}
	fs.Int64Var(&cfg.seed, "seed", 1, "script seed")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "size the script so one pass's timed part takes about this long")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for store directories and span files (default: a fresh temporary directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	workloads := workloadNames
	if *workload != "" {
		if _, ok := sessionsAtDefault[*workload]; !ok {
			return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames)
		}
		workloads = []string{*workload}
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "kscope-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	} else if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	printHeader(cfg)

	if *aa > 0 {
		return runAA(cfg, workloads, *aa)
	}
	for _, w := range workloads {
		if *trace != 1 {
			res, err := endToEndRun(w, cfg)
			if err := report(w, endToEnd, res, err); err != nil {
				return err
			}
		}
		if *trace != 0 {
			res, err := perLayerRun(w, cfg)
			if err := report(w, perLayer, res, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// printHeader records what the numbers were measured on.
func printHeader(cfg config) {
	fmt.Printf("# kaleidoscope bench: nproc=%d GOMAXPROCS=%d %s %s/%s tmpfs=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		fsType(cfg.workdir), cfg.seed, cfg.seconds)
	fmt.Printf("# fsync and loopback latencies are this sandbox's, not a device's or a network's\n")
}

// fsType names the filesystem the store directories live on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// result is what one (workload, pass) reports.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEndRun sets the workload up cfg.setups times (setup_s is the
// median), replays the whole script over the last set-up with tracing
// off — the testers interleaving it with reference sessions (ref.go) —
// and audits the outcome.
func endToEndRun(workload string, cfg config) (*result, error) {
	sz := sizeFor(workload, cfg.seconds)
	out := &result{}
	var (
		sc        *script
		tp        *topology
		cs        []*tester
		dir       string
		setupSecs []float64
	)
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	closeAll := func() { // idempotent
		for _, c := range cs {
			c.close()
		}
		cs = nil
		if tp != nil {
			tp.close()
		}
	}
	defer func() {
		closeAll()
		os.RemoveAll(dir)
	}()
	for i := 0; i < cfg.setups; i++ {
		closeAll()
		os.RemoveAll(dir)
		start := time.Now()
		sc = newScript(cfg.seed, sz.flowPerRound, sz.batchPerRound, cfg.rounds)
		var err error
		if dir, err = freshDir(cfg.workdir); err != nil {
			return nil, err
		}
		if tp, err = buildTopology(workload, sc, dir, nil); err != nil {
			return nil, err
		}
		for g := 0; g < testers; g++ {
			c := newTester(tp.baseURL, nil)
			c.refAddr = ref.addr
			c.refBody = sc.Warm.Singles[0]
			cs = append(cs, c)
		}
		warmUp(cs, sc)
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	out.note("script %s: %d rounds x (%d flow + %d batch tests) x %d sessions, hash %.12s",
		workload, cfg.rounds, sz.flowPerRound, sz.batchPerRound, sessionsPerTest, sc.Hash)

	pass := measure(cs, sc)
	out.values = pass.values
	out.values["setup_s"] = median(setupSecs)
	out.attempted, out.failed = pass.attempted, pass.failed
	out.note("timed %.1fs; per round: %d page fetches, %d uploads, %d batches, %d raw and %d qc polls, %d + %d reference sessions; set-ups %.2fs",
		pass.elapsed.Seconds(), pass.samples["page"], pass.samples["upload"], pass.samples["batch"],
		pass.samples["results_raw"], pass.samples["results_qc"], pass.samples["ref"], pass.samples["ref_batch"], setupSecs)
	out.note("reference session p50, round by round (flow part): %.3f ms", pass.refMs)
	for _, d := range wallClock {
		out.note("wall clock   %-20s %12.4f %s  (no bound; the host moves it)", d.Name, pass.values[d.Name], d.Unit)
	}
	for _, name := range demotedTails {
		out.note("demoted tail %-20s %10.4f ms  (no bound; per-layer tail.%s)", name, pass.values[name], name)
	}
	if err := pass.failure(); err != nil {
		return out, err
	}
	auditor := newTester(tp.baseURL, nil)
	defer auditor.close()
	if err := audit(tp, sc, pass.acked, auditor); err != nil {
		return out, err
	}
	out.attempted += auditor.attempted
	closeAll()
	if err := auditReopen(tp, sc, pass.acked); err != nil {
		return out, err
	}
	out.note("audit: acked == stored on %d tests, results and page bytes equal the oracle on every %dth, no early decision, stores reopen to the same counts",
		len(sc.tests()), auditEvery)
	return out, nil
}

// perLayerRun is the --trace 1 pass.
func perLayerRun(workload string, cfg config) (*result, error) {
	sz := sizeFor(workload, cfg.seconds)
	out := &result{}
	spanPath := filepath.Join(cfg.workdir, "spans-"+workload+".jsonl")
	var err error
	// The direct pass loops scale with the script, within [200, 20000].
	loops := int(math.Min(20000, math.Max(200, 20000*cfg.seconds/defaultSeconds)))
	out.values, out.attempted, err = layerPass(workload, cfg.seed, sz, loops, cfg.workdir, spanPath, out.note)
	return out, err
}

// report prints one pass's notes and every metric by name and unit, and
// ends with the JSON line the driver reads. A pass that failed (err) prints
// correct=false and fails the command.
func report(workload string, defs []metricDef, res *result, err error) error {
	if res == nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if err == nil && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("metric %s was not measured", d.Name)
			line.Correct = false
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		fmt.Printf("%-16s %-44s %16.4f %s\n", workload, d.Name, v, d.Unit)
		line.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if err != nil {
		// Say why before the result line, which stays last.
		fmt.Printf("# FAILED %s: %v\n", workload, err)
	}
	enc, jerr := json.Marshal(line)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(enc))
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	return nil
}

// runAA is the A/A check: two sets, A and B, of n end-to-end runs of
// every workload, alternating, run k of either set on seed+k. A metric
// whose set medians differ by more than its bound cannot carry that
// bound: the verdict says to demote it to a per-layer diagnostic.
func runAA(cfg config, workloads []string, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for k := 0; k < n; k++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				c := cfg
				c.seed = cfg.seed + int64(k)
				res, err := endToEndRun(w, c)
				if err != nil {
					return fmt.Errorf("A/A run %d%c %s: %w", k+1, 'A'+set, w, err)
				}
				for name, v := range res.values {
					sets[set][key{w, name}] = append(sets[set][key{w, name}], v)
				}
				fmt.Printf("# A/A run %d%c %s done\n", k+1, 'A'+set, w)
			}
		}
	}
	fmt.Printf("%-16s %-26s %14s %14s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "gap", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		row := func(name string, bound float64) {
			a, b := median(sets[0][key{w, name}]), median(sets[1][key{w, name}])
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "pass"
			switch {
			case bound == 0:
				verdict = "demoted already"
			case gap > bound:
				verdict = "demote"
				failed++
			}
			fmt.Printf("%-16s %-26s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n", w, name, a, b, 100*gap, 100*bound, verdict)
		}
		for _, d := range endToEnd {
			row(d.Name, d.Bound)
		}
		for _, name := range demotedTails {
			row(name, 0)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs exceeded their bound", failed)
	}
	return nil
}
