package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json's contract.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json, the catalogue in metrics.go and README.md say the same
// thing three times; this keeps them from drifting.
func TestBenchmarkFileMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the script is sized for %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the catalogue has %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the catalogue says %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the catalogue has %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the catalogue says %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the name/unit limits", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestReadmeListsEveryMetricAndWorkload(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		// x.{a,b} shorthand in the README stands for x.a and x.b.
		stem := d.Name
		if i := strings.LastIndexByte(stem, '.'); i >= 0 && strings.Contains(readme, stem[:i]+".{") {
			stem = stem[:i]
		}
		if !strings.Contains(readme, "`"+stem) {
			t.Errorf("README.md does not mention %s", d.Name)
		}
	}
	for _, w := range workloadNames {
		if !strings.Contains(readme, "`"+w+"`") {
			t.Errorf("README.md does not describe workload %s", w)
		}
	}
}
