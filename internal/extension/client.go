// Package extension simulates Kaleidoscope's browser extension: the client
// that runs the test flow of the paper's Fig. 3 on a participant's machine.
// It talks to the core server over its real HTTP API — download the test
// information, fetch each integrated webpage, replay the page load locally
// from the injected schedule, answer the comparison questions through the
// participant's perception model, record behavioural telemetry, and upload
// the session.
//
// The paper implements this logic as a Chrome extension; Chrome is only its
// host. Everything the extension *does* — the flow, the replay control,
// the telemetry — lives here and is exercised end-to-end in Go.
package extension

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/server"
)

// WorkerIDHeader is the per-worker identity header the server's rate
// limiter keys on (re-exported from the guard package for callers).
const WorkerIDHeader = guard.WorkerIDHeader

// Client is the extension's HTTP side. Idempotent GETs, the session upload
// (idempotent by worker id) and test deletion all go through one retry
// loop, internal/failover's: transport errors, 5xx, 429 sheds and
// fenced/stale-epoch answers rotate to the next base URL and are retried
// with jittered backoff or the server's capped Retry-After, as a real
// extension facing a flaky participant connection and a busy, failing-over
// deployment must be.
type Client struct {
	// bases collects the primary base URL plus any WithFailover targets;
	// NewClient builds the loop's ring from it.
	bases []string
	loop  failover.Loop
	httpc *http.Client
	// workerID, when set, is sent as the X-Kscope-Worker header so the
	// server's per-worker rate limiter keys on the worker, not the NAT'd
	// remote address.
	workerID string

	retryAttempts atomic.Int64
}

// defaultTimeout is the overall per-request budget of a client built
// without its own http.Client.
const defaultTimeout = 30 * time.Second

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithPolicy sets the retry budget, base backoff and Retry-After cap; zero
// fields keep failover.ClientPolicy's values (tests use ~1ms delays), so
// Retries: 0 means the default two, not none.
func WithPolicy(p failover.Policy) ClientOption {
	return func(c *Client) { c.loop.Policy = p.Or(c.loop.Policy) }
}

// WithWorkerID identifies this client to the server's per-worker rate
// limiter via the X-Kscope-Worker header.
func WithWorkerID(id string) ClientOption {
	return func(c *Client) { c.workerID = id }
}

// WithFailover adds alternate base URLs (the warm standby, typically).
// Retries rotate through them round-robin after transport errors,
// retryable statuses, and fenced or stale-epoch responses.
func WithFailover(urls ...string) ClientOption {
	return func(c *Client) {
		for _, u := range urls {
			if u != "" {
				c.bases = append(c.bases, u)
			}
		}
	}
}

// NewClient returns a client for a core server at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil httpc gets a client with a sane overall
// timeout — never http.DefaultClient, which would wait forever on a dead
// server.
func NewClient(baseURL string, httpc *http.Client, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("extension: empty base URL")
	}
	if httpc == nil {
		httpc = &http.Client{Timeout: defaultTimeout}
	}
	c := &Client{
		bases: []string{baseURL},
		httpc: httpc,
	}
	c.loop.Policy = failover.ClientPolicy
	c.loop.OnRetry = func(time.Duration) { c.retryAttempts.Add(1) }
	for _, opt := range opts {
		opt(c)
	}
	c.loop.Ring = failover.NewRing(c.bases...)
	return c, nil
}

// RetryAttempts reports how many retries this client has performed.
func (c *Client) RetryAttempts() int64 { return c.retryAttempts.Load() }

// Failovers reports how many times the client rotated to another base URL.
func (c *Client) Failovers() int64 { return c.loop.Ring.Failovers() }

// Epoch returns the highest replication epoch seen on any response (0
// before the first epoch-bearing response).
func (c *Client) Epoch() uint64 { return c.loop.Ring.Epoch() }

// BaseURL returns the base requests currently target.
func (c *Client) BaseURL() string {
	node, _ := c.loop.Ring.Current()
	return c.loop.Ring.Node(node)
}

// do performs one logical request through the failover loop: classify
// names the answers that end it (anything it does not claim is retried or
// definitive by status). A body is JSON, gzip-encoded when gzipped is set.
// The response is non-nil when the loop ended on it: the answer, or
// alongside the error a definitive refusal.
func (c *Client) do(method, path string, body []byte, gzipped bool, classify func(*failover.Response) failover.Verdict) (*failover.Response, error) {
	resp, err := c.loop.Do(context.Background(), func(node int) (*failover.Response, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.loop.Ring.Node(node)+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		if c.workerID != "" {
			req.Header.Set(WorkerIDHeader, c.workerID)
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return &failover.Response{Status: resp.StatusCode, Header: resp.Header, Body: b}, nil
	}, classify)
	if err != nil {
		if _, definitive := err.(*failover.StatusError); !definitive {
			// Budget spent or wait abandoned: whatever a node said last
			// is not the deployment's answer.
			resp = nil
		}
		return resp, fmt.Errorf("extension: %s %s: %w", method, path, err)
	}
	return resp, nil
}

// accept builds the classifier most requests need: the listed statuses are
// the answer, anything else is retried or definitive by status.
func accept(statuses ...int) func(*failover.Response) failover.Verdict {
	return func(r *failover.Response) failover.Verdict {
		if slices.Contains(statuses, r.Status) {
			return failover.Done
		}
		return failover.ByStatus(r.Status)
	}
}

func concluded(r *failover.Response) bool {
	return r.Status == http.StatusOK && r.Header.Get(server.ConcludedHeader) == "1"
}

// get issues a GET and returns the 200 body.
func (c *Client) get(path string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, path, nil, false, accept(http.StatusOK))
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// TestInfo fetches the test description, questions, and page list.
func (c *Client) TestInfo(testID string) (*server.TestInfo, error) {
	body, err := c.get("/api/tests/" + testID)
	if err != nil {
		return nil, err
	}
	var info server.TestInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("extension: decoding test info: %w", err)
	}
	return &info, nil
}

// FetchPageFile downloads one file of an integrated page.
func (c *Client) FetchPageFile(testID, pageID, file string) ([]byte, error) {
	return c.get("/api/tests/" + testID + "/pages/" + pageID + "/" + file)
}

// DeleteTest tears down a concluded test: the experimenter-side call that
// removes the test document, its integrated pages, stored sessions, and
// blob content. Deletion is idempotent on the server (a retry sweeps
// whatever a failed earlier attempt left behind), so a 404 — the test is
// already fully gone, perhaps deleted by an attempt whose response was lost
// — is treated as success.
func (c *Client) DeleteTest(testID string) error {
	_, err := c.do(http.MethodDelete, "/api/tests/"+testID, nil, false, accept(http.StatusOK, http.StatusNotFound))
	return err
}

// UploadBatch posts many finished sessions through the server's batched
// endpoint (POST /api/tests/{id}/sessions:batch), gzip-compressing the
// array on the wire when compress is set. The whole operation is idempotent
// the same way singles are: elements stored by an earlier attempt answer
// 409 on the retry, which callers treat as success. The returned report
// carries a per-element status for every element the server reached; it is
// non-nil whenever the server produced one, including alongside a
// definitive error.
func (c *Client) UploadBatch(testID string, sessions []server.SessionUpload, compress bool) (*server.BatchReport, error) {
	payload, err := json.Marshal(sessions)
	if err != nil {
		return nil, fmt.Errorf("extension: encoding batch: %w", err)
	}
	if compress {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			return nil, fmt.Errorf("extension: compressing batch: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("extension: compressing batch: %w", err)
		}
		payload = buf.Bytes()
	}
	resp, err := c.do(http.MethodPost, "/api/tests/"+testID+"/sessions:batch", payload, compress, accept(http.StatusOK))
	if resp == nil {
		return nil, err
	}
	if concluded(resp) {
		// Decided test: the whole batch was acknowledged unstored.
		return &server.BatchReport{TestID: testID, Concluded: true}, nil
	}
	var report server.BatchReport
	if json.Unmarshal(resp.Body, &report) != nil {
		if err == nil {
			err = fmt.Errorf("extension: corrupt batch report: %s", resp.Body[:min(len(resp.Body), 200)])
		}
		return nil, err
	}
	// On a definitive failure (400/408/413) the report — when the server
	// produced one — says which elements still committed.
	return &report, err
}

// UploadOutcome classifies how an accepted session upload ended.
type UploadOutcome int

const (
	// UploadStored: the server persisted the session (201).
	UploadStored UploadOutcome = iota
	// UploadDuplicate: an earlier attempt already stored it (409).
	UploadDuplicate
	// UploadConcluded: the test is already decided; the server
	// acknowledged the work without storing it (200 + X-Kscope-Concluded).
	UploadConcluded
)

// UploadSession posts a finished session to the core server and says how
// the accepted upload ended. The upload is idempotent by worker id: a 409
// means a previous attempt (perhaps one whose response was lost on the
// wire, or one a since-deposed primary acked) already stored this session,
// and is UploadDuplicate, a success — a participant's finished work is
// never lost to a flaky connection. UploadConcluded is an acknowledgement
// without storage, which spends no crowd budget.
func (c *Client) UploadSession(testID string, session server.SessionUpload) (UploadOutcome, error) {
	payload, err := json.Marshal(session)
	if err != nil {
		return UploadStored, fmt.Errorf("extension: encoding session: %w", err)
	}
	resp, err := c.do(http.MethodPost, "/api/tests/"+testID+"/sessions", payload, false,
		func(r *failover.Response) failover.Verdict {
			if r.Status == http.StatusCreated || r.Status == http.StatusConflict || concluded(r) {
				return failover.Done
			}
			return failover.ByStatus(r.Status)
		})
	switch {
	case err != nil:
		return UploadStored, err
	case resp.Status == http.StatusConflict:
		// Duplicate by worker id: already stored (possibly by the node a
		// failed-over attempt reached first).
		return UploadDuplicate, nil
	case resp.Status == http.StatusOK:
		// The sequential engine decided the test while this worker was
		// mid-flow: acknowledged, not stored, no budget spent.
		return UploadConcluded, nil
	}
	return UploadStored, nil
}

// Results fetches a test's conclusion from GET /api/tests/{id}/results,
// decision metadata included when the server's sequential engine has
// decided the test. quality selects the default-battery filtered view.
func (c *Client) Results(testID string, quality bool) (*server.Results, error) {
	path := "/api/tests/" + testID + "/results"
	if quality {
		path += "?quality=1"
	}
	body, err := c.get(path)
	if err != nil {
		return nil, err
	}
	var res server.Results
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("extension: decoding results: %w", err)
	}
	return &res, nil
}
