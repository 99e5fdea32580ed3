package netsim

import (
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// linkRig is one row's link with one host, "node", whose handler can block:
// a request to /block signals started and waits for release.
type linkRig struct {
	l                *Link
	c                *http.Client
	started, release chan struct{}
}

func (rig *linkRig) block(_ http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/block" {
		rig.started <- struct{}{}
		<-rig.release
	}
}

// TestLink holds the link to the behaviour of the sockets it replaces, one
// row per behaviour.
func TestLink(t *testing.T) {
	rows := []struct {
		name    string
		handler func(t *testing.T, rig *linkRig) http.HandlerFunc
		drive   func(t *testing.T, rig *linkRig)
	}{
		{
			name: "a cancelled context returns before a blocked handler does",
			drive: func(t *testing.T, rig *linkRig) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() { <-rig.started; cancel() }()
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://node/block", nil)
				if _, err := rig.c.Do(req); err == nil || ctx.Err() == nil {
					t.Fatalf("Do = %v with the handler still blocked, want the context's error", err)
				}
				close(rig.release)
			},
		},
		{
			name: "Sever fails an in-flight request and the host serves again",
			drive: func(t *testing.T, rig *linkRig) {
				go func() { <-rig.started; rig.l.Sever("node") }()
				if _, err := rig.c.Get("http://node/block"); err == nil || !strings.Contains(err.Error(), "severed") {
					t.Fatalf("in-flight request after Sever = %v, want severed", err)
				}
				close(rig.release)
				if resp, err := rig.c.Get("http://node/"); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("request after Sever = %v, %v; want 200", resp, err)
				}
			},
		},
		{
			name: "ErrAbortHandler yields a body read error",
			handler: func(*testing.T, *linkRig) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Length", "10")
					w.Write([]byte("12345"))
					panic(http.ErrAbortHandler)
				}
			},
			drive: func(t *testing.T, rig *linkRig) {
				resp, err := rig.c.Get("http://node/")
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				if err == nil || string(body) != "12345" {
					t.Fatalf("body %q, read error %v; want the 5 bytes sent, then an error", body, err)
				}
			},
		},
		{
			name: "any other panic crashes the program",
			handler: func(*testing.T, *linkRig) http.HandlerFunc {
				return func(http.ResponseWriter, *http.Request) { panic("server bug") }
			},
			drive: func(t *testing.T, rig *linkRig) {
				if os.Getenv("NETSIM_LINK_CRASH") == "1" {
					rig.c.Get("http://node/") // never returns: the panic ends the process
					return
				}
				cmd := exec.Command(os.Args[0], "-test.run=^TestLink$/^any_other_panic", "-test.count=1")
				cmd.Env = append(os.Environ(), "NETSIM_LINK_CRASH=1")
				out, err := cmd.CombinedOutput()
				if err == nil || !strings.Contains(string(out), "panic: server bug") {
					t.Fatalf("a handler's panic did not crash the program (%v):\n%s", err, out)
				}
			},
		},
		{
			name: "an unknown host is an error",
			drive: func(t *testing.T, rig *linkRig) {
				if _, err := rig.c.Post("http://elsewhere/", "text/plain", strings.NewReader("x")); err == nil {
					t.Fatal("request to an unknown host succeeded")
				}
			},
		},
		{
			name: "Close waits for a running handler and refuses the next request",
			drive: func(t *testing.T, rig *linkRig) {
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://node/block", nil)
				go rig.c.Do(req)
				<-rig.started
				cancel() // the caller gives up; the handler runs on
				closed := make(chan struct{})
				go func() { rig.l.Close(); close(closed) }()
				select {
				case <-closed:
					t.Fatal("Close returned while a handler was running")
				case <-time.After(20 * time.Millisecond):
				}
				close(rig.release)
				<-closed
				if _, err := rig.c.Get("http://node/"); err == nil {
					t.Fatal("a closed link served a request")
				}
			},
		},
		{
			name: "the request and response ContentLength and headers survive the link",
			handler: func(t *testing.T, _ *linkRig) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					if r.ContentLength != 5 || string(body) != "hello" || r.Header.Get("X-In") != "a" ||
						r.RequestURI != "/p?q=1" || r.Host != "node" || r.RemoteAddr == "" {
						t.Errorf("server saw %s %q host %q from %q, ContentLength %d, X-In %q, body %q",
							r.Method, r.RequestURI, r.Host, r.RemoteAddr, r.ContentLength, r.Header.Get("X-In"), body)
					}
					w.Header().Set("X-Out", "b")
					w.Header().Set("Content-Length", "3")
					w.WriteHeader(http.StatusCreated)
					w.Write([]byte("abc"))
				}
			},
			drive: func(t *testing.T, rig *linkRig) {
				req, _ := http.NewRequest(http.MethodPost, "http://node/p?q=1", strings.NewReader("hello"))
				req.Header.Set("X-In", "a")
				resp, err := rig.c.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusCreated || resp.ContentLength != 3 ||
					resp.Header.Get("X-Out") != "b" || string(body) != "abc" {
					t.Fatalf("client saw %s, ContentLength %d, X-Out %q, body %q (%v)",
						resp.Status, resp.ContentLength, resp.Header.Get("X-Out"), body, err)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig := &linkRig{l: &Link{}, started: make(chan struct{}, 1), release: make(chan struct{})}
			rig.c = &http.Client{Transport: rig.l}
			h := http.HandlerFunc(rig.block)
			if row.handler != nil {
				h = row.handler(t, rig)
			}
			rig.l.Serve("node", h)
			row.drive(t, rig)
			rig.l.Close()
		})
	}
}
