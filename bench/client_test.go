package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// A server that starts to emit ETags must see exactly the scripted share
// of revalidations: every participant arrives with a cold cache, so of a
// session's 9 page fetches only the 3 of the iframe reload are conditional,
// however many participants the tester has played before.
func TestOnlyTheReloadRevalidates(t *testing.T) {
	var (
		mu                  sync.Mutex
		plain, conditionals int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.Contains(r.URL.Path, "/pages/"):
			mu.Lock()
			defer mu.Unlock()
			w.Header().Set("ETag", `"v1"`)
			if r.Header.Get("If-None-Match") == `"v1"` {
				conditionals++
				w.WriteHeader(http.StatusNotModified)
				return
			}
			plain++
			_, _ = w.Write([]byte("page"))
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusCreated)
		default:
			_, _ = w.Write([]byte("{}"))
		}
	}))
	defer srv.Close()

	test := &scriptTest{ID: "t", Workers: []string{"w0", "w1", "w2"}, Singles: [][]byte{{'{', '}'}, {'{', '}'}, {'{', '}'}}}
	for page := range test.PageLen {
		for file := range test.PageLen[page] {
			test.PageLen[page][file] = len("page")
		}
	}
	c := newTester(srv.URL, nil)
	defer c.close()
	const sessions = 3
	for idx := 0; idx < sessions; idx++ {
		c.flowSession(test, idx, 1)
	}
	if c.failed != 0 {
		t.Fatalf("%d requests failed; first: %v", c.failed, c.firstErr)
	}
	if plain != 6*sessions || conditionals != 3*sessions {
		t.Errorf("%d full and %d conditional page fetches over %d sessions, want %d and %d",
			plain, conditionals, sessions, 6*sessions, 3*sessions)
	}
}
