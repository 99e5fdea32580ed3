package deploy

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/shard"
)

// metricName is a kscope_* series name as README writes one.
var metricName = regexp.MustCompile("`(kscope_[a-z0-9_]+)")

// readmeMetrics returns the kscope_* names README.md's "## Metrics" section
// lists.
func readmeMetrics(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Metrics\n")
	if !ok {
		t.Fatal(`README.md has no "## Metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(section, -1) {
		names[m[1]] = true
	}
	return names
}

// scrape GETs h's /metrics and returns the kscope_* series names it serves,
// a histogram under its own name rather than its _bucket/_sum/_count series.
func scrape(t *testing.T, h http.Handler) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var series []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		name, _, _ = strings.Cut(name, "{")
		if strings.HasPrefix(name, "kscope_") {
			series = append(series, name)
		}
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s] = true
	}
	for _, s := range series {
		if base, ok := strings.CutSuffix(s, "_bucket"); ok {
			delete(names, s)
			delete(names, base+"_sum")
			delete(names, base+"_count")
			names[base] = true
		}
	}
	return names
}

// TestMetricCatalogue holds README's metrics section to what the processes
// serve, in both directions: every kscope_* series that a plain node (guard
// and sequential engine on), a primary, a promoted standby or a router
// serves on /metrics is listed in README, and every kscope_* name README
// lists is served by one of them. Each mode answers a little traffic first,
// so the series that appear on first use are there.
func TestMetricCatalogue(t *testing.T) {
	listed := readmeMetrics(t)
	servedBy := map[string]string{}
	collect := func(mode string, h http.Handler) {
		for name := range scrape(t, h) {
			if _, ok := servedBy[name]; !ok {
				servedBy[name] = mode
			}
		}
	}
	get := func(h http.Handler, path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}

	node, err := Open(Config{Store: prepared(t), Guard: &guard.Config{MaxInflight: 8}, EarlyStopAlpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if rec := upload(node, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tests/served/sessions:batch",
		strings.NewReader(`[{"test_id":"served","worker_id":"w2"}]`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	get(node, "/api/tests/served/results")
	get(node, "/api/tests/served/results?quality=1")
	collect("node", node)

	primary, standby, _ := startPair(t)
	if rec := upload(primary, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload through the primary = %d: %s", rec.Code, rec.Body)
	}
	collect("primary", primary)
	if _, err := standby.Promote(); err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	collect("standby", standby)

	ts := httptest.NewServer(node)
	defer ts.Close()
	router, err := Open(Config{Shards: []shard.Spec{{Name: "s0", Primary: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	get(router, "/api/tests/served/results?quality=1")
	collect("router", router)

	var unlisted, unserved []string
	for name, mode := range servedBy {
		if !listed[name] {
			unlisted = append(unlisted, name+" (served by the "+mode+")")
		}
	}
	for name := range listed {
		if servedBy[name] == "" {
			unserved = append(unserved, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(unserved)
	for _, name := range unlisted {
		t.Errorf("/metrics serves %s, which README's metrics section does not list", name)
	}
	for _, name := range unserved {
		t.Errorf("README's metrics section lists %s, which no mode serves", name)
	}
	if len(listed) == 0 || len(servedBy) == 0 {
		t.Fatalf("README lists %d names, the modes serve %d: a pattern no longer matches", len(listed), len(servedBy))
	}
}
