package kaleidoscope

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef is a pointer into DESIGN.md the way comments write one: the
// file's name, with ".md" or without, then the section sign and a section's
// id, also across a comment's line break.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§([0-9]+[a-z]?)`)

// TestDesignReferencesResolve: every section a Go file or the Makefile points
// to is a "## " heading of DESIGN.md, so a section cannot be renumbered or
// cut under a pointer that still names it. A dangling one is reported at its
// file:line.
func TestDesignReferencesResolve(t *testing.T) {
	if !designRef.MatchString("(DESIGN.md\n\t// §6e)") {
		t.Fatal("the pattern does not read a reference that wraps onto the next comment line")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+[a-z]?)\. `).FindAllSubmatch(design, -1) {
		headings[string(m[1])] = true
	}
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || filepath.Ext(path) != ".go" && path != "Makefile":
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range designRef.FindAllSubmatchIndex(src, -1) {
			refs++
			if section := string(src[m[2]:m[3]]); !headings[section] {
				line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
				t.Errorf("%s:%d: §%s is no heading of DESIGN.md", path, line, section)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Error("no reference to DESIGN.md found: the pattern no longer matches how they are written")
	}
	t.Logf("%d references to DESIGN.md, %d headings", refs, len(headings))
}
