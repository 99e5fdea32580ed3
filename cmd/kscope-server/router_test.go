package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"kaleidoscope/internal/deploy"
)

func TestParseShards(t *testing.T) {
	specs, err := parseShards("http://s0:8780|http://s0b:8781, http://s1:8780")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Primary != "http://s0:8780" || specs[0].Standby != "http://s0b:8781" || specs[0].Name != "http://s0:8780" {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Primary != "http://s1:8780" || specs[1].Standby != "" {
		t.Errorf("spec 1 = %+v", specs[1])
	}

	for _, bad := range []string{
		"",                          // empty entry
		"http://a:1,,http://b:2",    // empty middle entry
		"not-a-url",                 // relative
		"http://a:1||http://b:2",    // empty primary before the pipe
		"|http://b:2",               // no primary at all
		"http://a:1|/just/a/path",   // standby not absolute
		"http://a:1,http://b:2|b:c", // standby without host
	} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

func TestBuildRouterServes(t *testing.T) {
	// A router over an unreachable shard still builds and serves its own
	// health surface — the shard being down is a runtime condition, not a
	// wiring error.
	specs, err := parseShards("http://127.0.0.1:1|http://127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	handler, err := deploy.Open(deploy.Config{Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer handler.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	if err := run([]string{"-shards", "garbage"}); err == nil {
		t.Error("invalid shard list should fail")
	}
}

// TestRouterFlagExclusivity: -shards turns the process into the stateless
// routing tier; storage-node flags alongside it are operator mistakes
// rejected before anything opens or listens. The rule itself, with every
// other mode exclusion, is internal/deploy's TestValidate; this proves each
// flag reaches it.
func TestRouterFlagExclusivity(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"store", []string{"-shards", "http://a:1", "-store", "/tmp/x"}, "-shards and -store"},
		{"replicate-to", []string{"-shards", "http://a:1", "-replicate-to", "http://b:2"}, "-shards and -replicate-to"},
		{"replica-of", []string{"-shards", "http://a:1", "-replica-of", "http://b:2"}, "-shards and -replicate-to"},
		{"earlystop", []string{"-shards", "http://a:1", "-earlystop-alpha", "0.05"}, "-shards and -earlystop-alpha"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
