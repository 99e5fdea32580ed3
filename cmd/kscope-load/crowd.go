package main

import (
	"fmt"
	"io"
	"strings"

	"kaleidoscope/internal/testbed"
)

// tenantCrowds is one crowd of -workers per fixture tenant.
func tenantCrowds(cfg config, bed *testbed.Bed, out io.Writer, batch int) []testbed.Crowd {
	var crowds []testbed.Crowd
	for _, f := range bed.Fixtures {
		crowds = append(crowds, testbed.Crowd{Test: f.Test.TestID, Workers: cfg.workers, Trusted: cfg.trusted,
			Concurrency: cfg.concurrency, Batch: batch})
	}
	fmt.Fprintf(out, "crowd: %d tenants x %d workers, concurrency %d each\n", len(crowds), cfg.workers, cfg.concurrency)
	return crowds
}

// soakDrive is the plain drive: every tenant's crowd through the front
// door, no fault, no gates beyond the standard audit.
func soakDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	_, err := bed.Drive(tenantCrowds(cfg, bed, out, 0), 0, nil)
	return nil, err
}

// throughputDrive ships the crowd's sessions as gzip batches of -batch.
// Its gate: the batched endpoint must have carried the run — what keeps
// the batch path from quietly regressing into one request and one fsync
// per session. How fast it ran is reported, and measured by BENCHMARK.json.
func throughputDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	reports, err := bed.Drive(tenantCrowds(cfg, bed, out, cfg.batch), 0, nil)
	if err != nil {
		return nil, err
	}
	return func() error {
		reg := bed.Front().Registry
		batches := reg.Counter("kscope_batch_requests_total").Value()
		stored := reg.Counter("kscope_batch_sessions_total", "status", "201").Value()
		fmt.Fprintf(out, "batches: %d requests of up to %d, %d group commits, %d stored, %d duplicate\n", batches, cfg.batch,
			reg.Counter("kscope_batch_flushes_total").Value(), stored,
			reg.Counter("kscope_batch_sessions_total", "status", "409").Value())
		if batches == 0 || stored == 0 {
			return fmt.Errorf("batched endpoint unused: %d batch requests, %d stored elements", batches, stored)
		}
		rate := float64(reports[0].Completed) / reports[0].Elapsed.Seconds()
		fmt.Fprintf(out, "throughput: %8.1f sessions/s %s\n", rate, rateBar(40))
		return nil
	}, nil
}

// rateBar renders the ASCII throughput bar of the given width. Its scale is
// the rate itself, so it is full.
func rateBar(width int) string {
	return "[" + strings.Repeat("#", width) + "]"
}

// killDrive is the zero-acked-loss chaos gate of replication and of the
// routing tier. Mid-soak — after a third of the combined crowd has landed
// — one shard's primary is killed the hard way and its standby promoted,
// with the zombie left listening. The victim comes from the seed, among
// the shards a tenant is homed on. Whoever talks to that shard — the
// workers' own failover rings, or the router for them — must notice
// (fenced writes, stale epochs) and move to the promoted standby; a worker
// never sees more than a retried request. What the run must then satisfy
// is the standard audit, on the shard's CURRENT store.
func killDrive(cfg config, bed *testbed.Bed, out io.Writer) (func() error, error) {
	crowds := tenantCrowds(cfg, bed, out, 0)
	var tenants []string
	for _, c := range crowds {
		tenants = append(tenants, c.Test)
	}
	victim, homed := bed.HomeVictim(tenants...)
	killAt := max(len(crowds)*cfg.workers/3, 1)
	fmt.Fprintf(out, "victim: shard %d (home of %v), killed once %d workers have finished\n", victim, homed, killAt)
	killErr := fmt.Errorf("crowds finished before the kill triggered (kill at %d)", killAt)
	_, err := bed.Drive(crowds, killAt, func() { killErr = bed.KillAndPromote(victim) })
	return func() error { return killErr }, err
}
