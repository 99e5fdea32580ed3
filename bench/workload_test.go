package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, at a hundredth of its size (-seconds 0.2), must replay without a
// failed request, pass its audit, report every catalogued metric, and
// produce a span file whose split accounts for the requests.
func TestWorkloadsPassTheirAuditAtSmallScale(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			cfg := config{seed: 3, seconds: defaultSeconds / 100, setups: 1, rounds: 2, workdir: t.TempDir()}
			res, err := endToEndRun(w, cfg)
			if err != nil {
				t.Fatalf("end-to-end pass: %v", err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.values[d.Name]; !ok || math.IsNaN(v) || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v); it must be measured and never 0", d.Name, v, ok)
				}
			}

			layers, err := perLayerRun(w, cfg)
			if err != nil {
				t.Fatalf("per-layer pass: %v", err)
			}
			for _, d := range perLayer {
				if v, ok := layers.values[d.Name]; !ok || math.IsNaN(v) || v < 0 {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			if st, err := os.Stat(filepath.Join(cfg.workdir, "spans-"+w+".jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file missing or empty: %v", err)
			}

			// The layers a workload has must have been seen; the ones it
			// lacks must read 0.
			positive := map[string][]string{
				nodeMemory:     {"server.handle_self_us.upload", "net.client_hop_us.page", "earlystop.folds_per_session"},
				nodeDurable:    {"store.fsync_us.upload", "store.wal_bytes_per_session", "store.fsyncs_per_session.batch"},
				pairReplicated: {"replica.ship_us.upload", "replica.link_rtt_us", "replica.follower_fsync_us", "replica.posts_per_session.upload"},
				fleetRouter3:   {"shard.router_self_us.page", "shard.hop_us.upload", "shard.upstream_calls_per_req.results_qc", "shard.upstream_bytes_per_req.results_qc"},
			}
			zero := map[string][]string{
				nodeMemory:     {"store.fsync_us.upload", "shard.hop_us.page", "replica.ship_us.upload"},
				nodeDurable:    {"shard.hop_us.page", "replica.ship_us.upload"},
				pairReplicated: {"shard.router_self_us.upload"},
				fleetRouter3:   {"store.fsync_us.upload", "replica.link_rtt_us", "earlystop.folds_per_session"},
			}
			for _, name := range positive[w] {
				if layers.values[name] <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, layers.values[name], w)
				}
			}
			for _, name := range zero[w] {
				if layers.values[name] != 0 {
					t.Errorf("%s = %v on %s, want 0", name, layers.values[name], w)
				}
			}
		})
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	if err := run([]string{"-workload", "nope"}); err == nil {
		t.Error("an unknown workload must fail the command")
	}
}
