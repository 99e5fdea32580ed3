package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"time"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/server"
)

// throughput is the batched-upload scenario: the fleet builds every
// session through the real extension flow, ships them as gzip-compressed
// batches through POST /api/tests/{id}/sessions:batch, and the run reports
// end-to-end sessions/sec plus the server's own batch metrics. With
// -min-rate set the run fails when throughput lands under the floor — the
// CI gate that keeps the batch path from quietly regressing into
// one-fsync-per-session territory.
//
// The exit assertions are the soak's: zero lost workers, no unexpected
// statuses, and incremental results equal to the from-scratch oracle.
func throughput(cfg config, out io.Writer) error {
	srv, reg, err := buildServer()
	if err != nil {
		return err
	}
	var statuses statusTable
	ts := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer ts.Close()

	rng := rand.New(rand.NewSource(cfg.seed))
	popFn := crowd.OpenCrowd
	if cfg.trusted {
		popFn = crowd.TrustedCrowd
	}
	pop, err := popFn(cfg.workers, rng)
	if err != nil {
		return err
	}

	fleet := &extension.Fleet{
		BaseURL:     ts.URL,
		Answer:      extension.AnswerFontSize(),
		Seed:        cfg.seed,
		Concurrency: cfg.concurrency,
		Policy:      failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond},
		Registry:    reg,
		BatchSize:   cfg.batch,
	}
	report, err := fleet.Run(testID, pop)
	if err != nil {
		return err
	}

	rate := float64(report.Completed) / report.Elapsed.Seconds()
	fmt.Fprintf(out, "kscope-load: throughput scenario, %d workers, batch size %d (seed %d, concurrency %d)\n",
		cfg.workers, cfg.batch, cfg.seed, cfg.concurrency)
	fmt.Fprintf(out, "sessions: %d completed, %d failed, %d client retries\n",
		report.Completed, report.Failed, report.Retries)
	fmt.Fprintf(out, "throughput: %8.1f sessions/s %s over %s\n",
		rate, rateBar(rate, cfg.minRate, 40), report.Elapsed.Round(time.Millisecond))

	// The server's side of the story: how many batch requests, how the
	// elements fared, how many WAL group commits the batches collapsed into.
	batches := reg.Counter("kscope_batch_requests_total").Value()
	flushes := reg.Counter("kscope_batch_flushes_total").Value()
	stored := reg.Counter("kscope_batch_sessions_total", "status", "201").Value()
	dup := reg.Counter("kscope_batch_sessions_total", "status", "409").Value()
	fmt.Fprintf(out, "batches: %d requests, %d group commits, %d stored, %d duplicate\n",
		batches, flushes, stored, dup)
	printLatencies(out, reg)
	statuses.print(out)

	if report.Failed > 0 {
		return fmt.Errorf("%d of %d workers failed to complete: %v", report.Failed, cfg.workers, report.Errs)
	}
	if bad := statuses.unexpected(); len(bad) > 0 {
		return fmt.Errorf("server produced unexpected statuses: %v", bad)
	}
	if batches == 0 || stored == 0 {
		return fmt.Errorf("batched endpoint unused: %d batch requests, %d stored elements", batches, stored)
	}
	if err := verifyOracle(out, ts.URL, srv); err != nil {
		return err
	}
	if cfg.minRate > 0 && rate < cfg.minRate {
		return fmt.Errorf("throughput %.1f sessions/s is under the -min-rate floor %.1f", rate, cfg.minRate)
	}
	return nil
}

// rateBar renders an ASCII throughput bar of the given width. With a
// positive target the scale puts the target marker ('|') at half width, so
// a passing run visibly clears it; without one the bar is simply full.
func rateBar(rate, target float64, width int) string {
	if width < 4 {
		width = 4
	}
	scale := rate
	marker := -1
	if target > 0 {
		scale = 2 * target
		marker = width / 2
	}
	fill := width
	if scale > 0 {
		fill = int(float64(width) * rate / scale)
		if fill > width {
			fill = width
		}
	}
	cells := make([]byte, width)
	for i := range cells {
		switch {
		case i == marker:
			cells[i] = '|'
		case i < fill:
			cells[i] = '#'
		default:
			cells[i] = '.'
		}
	}
	return "[" + string(cells) + "]"
}
