package failover

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRingExhaustedTyped: a request that dies on every ring member yields
// an error matching ErrRingExhausted and carrying each node's last state,
// alongside the last real answer.
func TestRingExhaustedTyped(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer primary.Close()
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer standby.Close()

	last, err := get(context.Background(), httpLoop(Policy{}, primary.URL, standby.URL), "/t")
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrRingExhausted) {
		t.Fatalf("errors.Is(ErrRingExhausted) = false for %v", err)
	}
	var ring *RingExhaustedError
	if !errors.As(err, &ring) {
		t.Fatalf("errors.As(*RingExhaustedError) = false for %T", err)
	}
	// 3 attempts walk primary, standby, primary: ring order, last status
	// each.
	want := []NodeStatus{
		{BaseURL: primary.URL, Status: http.StatusServiceUnavailable},
		{BaseURL: standby.URL, Status: http.StatusTooManyRequests},
	}
	if len(ring.Nodes) != len(want) {
		t.Fatalf("Nodes = %+v, want both ring members", ring.Nodes)
	}
	for i, w := range want {
		if got := ring.Nodes[i]; got.BaseURL != w.BaseURL || got.Status != w.Status || got.Err == nil {
			t.Errorf("Nodes[%d] = %+v, want %s status %d", i, got, w.BaseURL, w.Status)
		}
	}
	if last == nil || last.Status != http.StatusServiceUnavailable {
		t.Errorf("last real answer = %+v, want the final attempt's 503", last)
	}
	for _, want := range []string{"failover ring exhausted", primary.URL, standby.URL, "503", "429"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err.Error(), want)
		}
	}
}

// TestRingExhaustedTransportError: a node that never answers is recorded
// with status 0 and its transport error, and there is no answer to hand
// back.
func TestRingExhaustedTransportError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	last, err := get(context.Background(), httpLoop(Policy{}, dead.URL), "/t")
	if !errors.Is(err, ErrRingExhausted) {
		t.Fatalf("errors.Is = false for %v", err)
	}
	var ring *RingExhaustedError
	if !errors.As(err, &ring) {
		t.Fatal(err)
	}
	if len(ring.Nodes) != 1 || ring.Nodes[0].Status != 0 || ring.Nodes[0].Err == nil {
		t.Errorf("Nodes = %+v, want one transport-error entry with status 0", ring.Nodes)
	}
	if ring.Unwrap() == nil {
		t.Error("the last attempt's error must stay unwrappable")
	}
	if last != nil {
		t.Errorf("last = %+v, want nil: no node ever answered", last)
	}
}

// TestDefinitive4xxIsNotRingExhaustion: a 404 is the deployment answering,
// not the ring failing.
func TestDefinitive4xxIsNotRingExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	resp, err := get(context.Background(), httpLoop(Policy{}, ts.URL), "/t")
	if errors.Is(err, ErrRingExhausted) {
		t.Errorf("definitive 404 classified as ring exhaustion: %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound || resp == nil {
		t.Errorf("got (%+v, %v), want the 404 alongside a *StatusError", resp, err)
	}
}
