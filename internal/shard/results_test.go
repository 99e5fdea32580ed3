package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/server"
)

// TestRouterResultsShardOrder: both results surfaces end in the same
// answer for the same shard answers, whichever shard gave which. A 404
// outranks a refusal when nothing merges; a refusal beside a merged answer
// marks it partial; a degraded merged answer marks it degraded.
func TestRouterResultsShardOrder(t *testing.T) {
	// A shard answers as a real node ("ok"), a real node in degraded mode,
	// or with a bare status.
	shard := func(t *testing.T, answer string) string {
		var h http.Handler
		switch answer {
		case "ok", "degraded":
			srv, _, _ := prepNode(t)
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if answer == "degraded" {
					w.Header().Set(server.DegradedHeader, "1")
				}
				srv.ServeHTTP(w, r)
			})
		default:
			var status int
			fmt.Sscan(answer, &status)
			h = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				writeError(w, status, "stub shard answers %d", status)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for _, tc := range []struct {
		answers           [2]string
		status            int
		partial, degraded bool
	}{
		{answers: [2]string{"404", "400"}, status: http.StatusNotFound},
		{answers: [2]string{"400", "400"}, status: http.StatusBadRequest},
		{answers: [2]string{"ok", "400"}, status: http.StatusOK, partial: true},
		{answers: [2]string{"degraded", "404"}, status: http.StatusOK, degraded: true},
	} {
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			for _, query := range []string{"", "?quality=1"} {
				a, b := tc.answers[order[0]], tc.answers[order[1]]
				t.Run(fmt.Sprintf("%s,%s%s", a, b, query), func(t *testing.T) {
					rt, err := New(Config{
						Shards: []Spec{{Name: "s0", Primary: shard(t, a)}, {Name: "s1", Primary: shard(t, b)}},
						Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond},
					})
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(rt)
					t.Cleanup(ts.Close)
					resp, body := fetch(t, ts.URL+"/api/tests/"+ringTestID+"/results"+query)
					if resp.StatusCode != tc.status {
						t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, body)
					}
					if got := resp.Header.Get(PartialHeader) == "1"; got != tc.partial {
						t.Errorf("%s set = %v, want %v", PartialHeader, got, tc.partial)
					}
					if got := resp.Header.Get(server.DegradedHeader) == "1"; got != tc.degraded {
						t.Errorf("%s set = %v, want %v", server.DegradedHeader, got, tc.degraded)
					}
				})
			}
		}
	}
}
