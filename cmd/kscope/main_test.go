package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kaleidoscope/internal/store"
)

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestCmdGen(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"gen", "-kind", "wiki", "-font", "12", "-out", filepath.Join(dir, "wiki")}); err != nil {
		t.Fatalf("gen wiki: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wiki", "index.html")); err != nil {
		t.Errorf("index.html missing: %v", err)
	}
	if err := run([]string{"gen", "-kind", "group", "-variant", "-out", filepath.Join(dir, "group")}); err != nil {
		t.Fatalf("gen group: %v", err)
	}
	if err := run([]string{"gen", "-kind", "nope", "-out", dir}); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := run([]string{"gen", "-kind", "wiki"}); err == nil {
		t.Error("missing -out should fail")
	}
}

func TestCmdParamsExampleAndValidate(t *testing.T) {
	if err := cmdParamsExample(); err != nil {
		t.Fatalf("params-example: %v", err)
	}
	// Round-trip: the example must validate.
	dir := t.TempDir()
	path := filepath.Join(dir, "params.json")
	example, err := exampleParamsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, example, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-params", path}); err != nil {
		t.Errorf("validate: %v", err)
	}
	if err := run([]string{"validate", "-params", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file should fail")
	}
	if err := run([]string{"validate"}); err == nil {
		t.Error("missing -params should fail")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-params", path}); err == nil {
		t.Error("malformed document should fail")
	}
}

// writeStudyFixture generates two wiki versions plus a parameter document
// pointing at them.
func writeStudyFixture(t *testing.T, dir string) (paramsPath, sitesDir string) {
	t.Helper()
	sitesDir = filepath.Join(dir, "sites")
	for _, v := range []struct{ name, font string }{
		{"wiki-12pt", "12"},
		{"wiki-14pt", "14"},
	} {
		if err := run([]string{"gen", "-kind", "wiki", "-font", v.font, "-out", filepath.Join(sitesDir, v.name)}); err != nil {
			t.Fatal(err)
		}
	}
	doc := `{
	  "test_id": "cli-study",
	  "webpage_num": 2,
	  "test_description": "cli font study",
	  "participant_num": 5,
	  "question": ["Which webpage's font size is more suitable (easier) for reading?"],
	  "webpages": [
	    {"web_path": "wiki-12pt", "web_page_load": 2000, "web_main_file": "index.html"},
	    {"web_path": "wiki-14pt", "web_page_load": 2000, "web_main_file": "index.html"}
	  ]
	}`
	paramsPath = filepath.Join(dir, "params.json")
	if err := os.WriteFile(paramsPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return paramsPath, sitesDir
}

func TestCmdPrepare(t *testing.T) {
	dir := t.TempDir()
	paramsPath, sitesDir := writeStudyFixture(t, dir)
	storeDir := filepath.Join(dir, "store")
	if err := run([]string{"prepare", "-params", paramsPath, "-sites", sitesDir, "-store", storeDir}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "db", "tests.jsonl")); err != nil {
		t.Errorf("db not materialized: %v", err)
	}
	blobs, err := store.OpenBlobStore(filepath.Join(storeDir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := blobs.List("cli-study/"); err != nil || len(keys) == 0 {
		t.Errorf("blobs not materialized: %v", err)
	}
	// Missing flags fail.
	if err := run([]string{"prepare", "-params", paramsPath}); err == nil {
		t.Error("missing dirs should fail")
	}
	// Missing site folder fails.
	if err := run([]string{"prepare", "-params", paramsPath, "-sites", filepath.Join(dir, "nowhere"), "-store", filepath.Join(dir, "s2")}); err == nil {
		t.Error("missing sites should fail")
	}
}

func TestCmdSimulate(t *testing.T) {
	dir := t.TempDir()
	paramsPath, sitesDir := writeStudyFixture(t, dir)
	if err := run([]string{"simulate", "-params", paramsPath, "-sites", sitesDir, "-seed", "3"}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := run([]string{"simulate", "-params", paramsPath, "-sites", sitesDir, "-question", "readiness"}); err != nil {
		t.Fatalf("simulate readiness: %v", err)
	}
	if err := run([]string{"simulate", "-params", paramsPath, "-sites", sitesDir, "-question", "bogus"}); err == nil {
		t.Error("unknown question model should fail")
	}
	if err := run([]string{"simulate", "-params", paramsPath}); err == nil {
		t.Error("missing -sites should fail")
	}
}

func TestCmdResults(t *testing.T) {
	dir := t.TempDir()
	paramsPath, sitesDir := writeStudyFixture(t, dir)
	storeDir := filepath.Join(dir, "store")
	if err := run([]string{"prepare", "-params", paramsPath, "-sites", sitesDir, "-store", storeDir}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	// No sessions yet: still succeeds with zero workers.
	if err := run([]string{"results", "-store", storeDir, "-test", "cli-study"}); err != nil {
		t.Fatalf("results: %v", err)
	}
	if err := run([]string{"results", "-store", storeDir, "-test", "cli-study", "-quality=false"}); err != nil {
		t.Fatalf("results raw: %v", err)
	}
	if err := run([]string{"results", "-store", storeDir, "-test", "ghost"}); err == nil {
		t.Error("unknown test should fail")
	}
	if err := run([]string{"results"}); err == nil {
		t.Error("missing flags should fail")
	}
}

// TestCmdSimulateSortedConcurrent: the sorted flow is the test's own
// "sorted" parameter, not a flag of the simulation.
func TestCmdSimulateSortedConcurrent(t *testing.T) {
	dir := t.TempDir()
	paramsPath, sitesDir := writeStudyFixture(t, dir)
	doc, err := os.ReadFile(paramsPath)
	if err != nil {
		t.Fatal(err)
	}
	sorted := strings.Replace(string(doc), `"participant_num": 5,`, `"participant_num": 5, "sorted": true,`, 1)
	if err := os.WriteFile(paramsPath, []byte(sorted), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-params", paramsPath, "-sites", sitesDir, "-concurrency", "4"}); err != nil {
		t.Fatalf("simulate sorted concurrent: %v", err)
	}
	if err := run([]string{"simulate", "-params", paramsPath, "-sites", sitesDir, "-sorted"}); err == nil {
		t.Error("simulate accepted the removed -sorted flag")
	}
}
