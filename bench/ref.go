package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The reference is the benchmark's yardstick for the host. This box is two
// vCPUs of a shared machine, and for minutes at a time every request
// through loopback takes 25-60 % longer, whatever the code
// (README.md, "Steadiness"). A wall-clock value therefore says as much
// about the neighbours as about Kaleidoscope. So the testers interleave the
// script with *reference sessions*: the same requests in the same order and
// sizes — test info, nine page files, one session upload — against a bare
// net/http handler that lives in this file, imports nothing of
// kaleidoscope/internal and serves bytes from memory. An end-to-end timing
// is reported as a multiple of the reference session's median duration in
// the same part of the same round (unit xref): the host's level shifts
// cancel, the code under test does not.
const (
	refEvery      = 4 // flow part: one reference session after every 4th session of a tester
	refSmallBytes = 567
	refLargeBytes = 113 << 10
)

// refServer is the bare stand-in the reference sessions talk to.
type refServer struct {
	addr    string // host:port, as the testers' dialer sees it
	srv     *http.Server
	serving sync.WaitGroup
}

// startReference serves the stand-in on a fresh loopback port.
func startReference() (*refServer, error) {
	small := bytes.Repeat([]byte("s"), refSmallBytes)
	large := bytes.Repeat([]byte("kaleidoscope reference page line\n"), refLargeBytes/33+1)[:refLargeBytes]
	mux := http.NewServeMux()
	mux.HandleFunc("GET /small", func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(small) })
	mux.HandleFunc("GET /large", func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(large) })
	// An upload is read, decoded and acknowledged: no validation, no store.
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var doc map[string]any
		if err == nil {
			err = json.Unmarshal(body, &doc)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = fmt.Fprintf(w, `{"stored":true,"fields":%d}`, len(doc))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refServer{addr: ln.Addr().String(), srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = r.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return r, nil
}

func (r *refServer) close() {
	_ = r.srv.Close()
	r.serving.Wait()
}

// refGet fetches one stand-in resource and checks its length.
func (c *tester) refGet(path string, want int) {
	url := "http://" + c.refAddr + path
	resp, data, ok := c.do(routeRef, http.MethodGet, url, nil, nil)
	if ok && (resp.StatusCode != http.StatusOK || len(data) != want) {
		c.fail("GET %s: status %d, %d bytes, want %d", url, resp.StatusCode, len(data), want)
	}
}

// refSession is one reference session: flowSession's eleven requests, by
// count, order and size, against the stand-in. Its duration is the unit of
// the end-to-end timings.
func (c *tester) refSession() {
	start := time.Now()
	c.refGet("/small", refSmallBytes)
	for page := 0; page < 3; page++ {
		c.refGet("/small", refSmallBytes)
		c.refGet("/large", refLargeBytes)
		c.refGet("/large", refLargeBytes)
	}
	url := "http://" + c.refAddr + "/session"
	resp, data, ok := c.do(routeRef, http.MethodPost, url, c.refBody, map[string]string{"Content-Type": "application/json"})
	if ok && resp.StatusCode != http.StatusCreated {
		c.fail("POST %s: status %d: %.200s", url, resp.StatusCode, data)
	}
	spent := time.Since(start)
	c.refLat = append(c.refLat, float64(spent)/1e6)
	c.refTime += spent
}
