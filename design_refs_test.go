package kaleidoscope

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designRef is a pointer into DESIGN.md the way comments write one: the
// file's name, with ".md" or without, then the section sign and a section's
// id ("6", "5b", "6.1"), also across a comment's line break.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§([0-9]+(?:\.[0-9]+|[a-z])?)`)

// designHeading is a numbered heading of DESIGN.md: "## 6. Title",
// "## 5b. Title" or "### 6.1 Title".
var designHeading = regexp.MustCompile(`(?m)^(#+) ([0-9]+(?:\.[0-9]+|[a-z])?)\.? `)

// anyHeading is any Markdown heading line.
var anyHeading = regexp.MustCompile(`(?m)^(#+) `)

// testFunc is a test, fuzz target or benchmark declared at the top level of
// a *_test.go file; citedTest is such a name in backticks.
var (
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	citedTest = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)`")
)

// inventoryRow names a package directory in the first column of a table.
var inventoryRow = regexp.MustCompile("(?m)^\\| `((?:internal|cmd)/[a-z0-9-]+)`")

func readDesign(t *testing.T) []byte {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	return design
}

// designHeadings returns the ids of DESIGN.md's numbered headings.
func designHeadings(design []byte) map[string]bool {
	ids := map[string]bool{}
	for _, m := range designHeading.FindAllSubmatch(design, -1) {
		ids[string(m[2])] = true
	}
	return ids
}

// designSection returns the body under the heading with the given id, up to
// the next heading of the same or a higher level ("" when there is none).
func designSection(design []byte, id string) string {
	for _, m := range designHeading.FindAllSubmatchIndex(design, -1) {
		if string(design[m[4]:m[5]]) != id {
			continue
		}
		level := m[3] - m[2]
		body := design[m[1]:]
		for _, h := range anyHeading.FindAllSubmatchIndex(body, -1) {
			if h[3]-h[2] <= level {
				return string(body[:h[0]])
			}
		}
		return string(body)
	}
	return ""
}

// walkRepo calls visit for every regular file under the repository root,
// skipping hidden directories other than .github.
func walkRepo(t *testing.T, visit func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && path != ".github" && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir():
			visit(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// danglingRefs reports, as file:line, each DESIGN.md pointer in src that
// names no heading; n is how many pointers src holds.
func danglingRefs(path string, src []byte, headings map[string]bool) (problems []string, n int) {
	for _, m := range designRef.FindAllSubmatchIndex(src, -1) {
		n++
		if section := string(src[m[2]:m[3]]); !headings[section] {
			line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
			problems = append(problems, fmt.Sprintf("%s:%d: §%s is no heading of DESIGN.md", path, line, section))
		}
	}
	return problems, n
}

// TestDesignReferencesResolve: every section a Go file, the Makefile or a CI
// workflow points to is a numbered heading of DESIGN.md, so a section cannot
// be renumbered or cut under a pointer that still names it. A dangling one
// is reported at its file:line.
func TestDesignReferencesResolve(t *testing.T) {
	headings := designHeadings(readDesign(t))
	if p, n := danglingRefs("x.go", []byte("(DESIGN.md\n\t// §6.1) and DESIGN"+" §6z"), headings); n != 2 || len(p) != 1 {
		t.Fatalf("a wrapped pointer to §6.1 and a dangling §6z read as %d pointers, problems %q; want 2 and one problem", n, p)
	}
	refs := 0
	walkRepo(t, func(path string) {
		if filepath.Ext(path) != ".go" && filepath.Ext(path) != ".yml" && path != "Makefile" {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		problems, n := danglingRefs(path, src, headings)
		refs += n
		for _, p := range problems {
			t.Error(p)
		}
	})
	if refs == 0 {
		t.Error("no reference to DESIGN.md found: the pattern no longer matches how they are written")
	}
	t.Logf("%d references to DESIGN.md, %d headings", refs, len(headings))
}

// uncitedTests reports each name an invariants table cites that declared
// lacks, and each table row that cites no name at all; n counts the citations.
func uncitedTests(table string, declared map[string]bool) (problems []string, n int) {
	body := false
	for _, line := range strings.Split(table, "\n") {
		switch {
		case strings.HasPrefix(line, "|---"):
			body = true
			continue
		case !body || !strings.HasPrefix(line, "|"):
			continue
		}
		names := citedTest.FindAllStringSubmatch(line, -1)
		if len(names) == 0 {
			problems = append(problems, "invariants row cites no test: "+line)
		}
		for _, m := range names {
			n++
			if !declared[m[1]] {
				problems = append(problems, "DESIGN.md §6.5 cites "+m[1]+", which no *_test.go declares")
			}
		}
	}
	return problems, n
}

// TestDesignInvariantsCiteRealTests: every Test…, Fuzz… or Benchmark… name
// DESIGN.md's invariants table (§6.5) cites is declared in some *_test.go
// file, so a test cannot be renamed or deleted out from under the invariant
// it holds. Only the table is read: prose also names identifiers such as
// shard.TestKey that are not tests.
func TestDesignInvariantsCiteRealTests(t *testing.T) {
	table := designSection(readDesign(t), "6.5")
	declared := map[string]bool{}
	walkRepo(t, func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
	})
	problems, n := uncitedTests(table, declared)
	for _, p := range problems {
		t.Error(p)
	}
	if n == 0 {
		t.Fatal("DESIGN.md §6.5 cites no test: the section is gone or the pattern no longer matches its rows")
	}
	// The same table with one cited test renamed must fail.
	renamed := citedTest.FindStringSubmatch(table)[1]
	delete(declared, renamed)
	if p, _ := uncitedTests(table, declared); len(p) == 0 {
		t.Errorf("a renamed %s went unnoticed", renamed)
	}
	t.Logf("DESIGN.md §6.5 cites %d tests", n)
}

// missingRows reports each directory that has no row in inventory and each
// row that names no directory.
func missingRows(inventory string, dirs []string) (problems []string) {
	rows := map[string]bool{}
	for _, m := range inventoryRow.FindAllStringSubmatch(inventory, -1) {
		rows[m[1]] = true
	}
	for _, dir := range dirs {
		if !rows[dir] {
			problems = append(problems, dir+" has no row in DESIGN.md §3")
		}
		delete(rows, dir)
	}
	for dir := range rows {
		problems = append(problems, "DESIGN.md §3 lists "+dir+", which is no directory")
	}
	return problems
}

// TestDesignInventoryCoversEveryPackage: every directory directly under
// internal/ and cmd/ has a row in DESIGN.md's §3 inventory, and every such
// row names a directory that exists.
func TestDesignInventoryCoversEveryPackage(t *testing.T) {
	inventory := designSection(readDesign(t), "3")
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, root+"/"+e.Name())
			}
		}
	}
	for _, p := range missingRows(inventory, dirs) {
		t.Error(p)
	}
	// The same inventory with one row removed must fail.
	cut := regexp.MustCompile("(?m)^\\| `"+regexp.QuoteMeta(dirs[0])+"`.*\n").ReplaceAllString(inventory, "")
	if want := dirs[0] + " has no row in DESIGN.md §3"; !slices.Contains(missingRows(cut, dirs), want) {
		t.Errorf("with %s's row removed, missingRows does not report it", dirs[0])
	}
}
