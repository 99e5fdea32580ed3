package kaleidoscope

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// clockWaits are the time package's ways to wait on the wall clock or to
// measure it.
var clockWaits = map[string]bool{
	"Sleep": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "Tick": true, "NewTicker": true,
}

// clockAllowed names, as file:function, the only tests that may use the
// clock that way, each with the reason.
var clockAllowed = map[string]string{
	"internal/server/batch_stream_test.go:TestBatchWhitespaceRunIsLinear": "CPU per byte has no count, so it compares two timings taken in one run: a ratio no host speed or race detector moves",
	"internal/netsim/link_test.go:TestLink":                               "a 20 ms window in which Close must not return: a slow host can make it miss a bug, never fail a correct build",
}

// clockUses reports each use in a Go source file of a clockWaits function,
// or of time.Now() compared on the spot (time.Now().After(deadline), the
// deadline loop's test), as "function: time.X" keyed by line. Benchmark
// functions measure time by design and are skipped.
func clockUses(path string, src []byte) (map[int]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	timeName := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	// timeName.X names X; any other expression names nothing.
	inTime := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName {
				return sel.Sel.Name
			}
		}
		return ""
	}
	uses := map[int]string{}
	if timeName == "" {
		return uses, nil
	}
	for _, decl := range file.Decls {
		fn := "(package level)"
		if f, ok := decl.(*ast.FuncDecl); ok {
			if strings.HasPrefix(f.Name.Name, "Benchmark") {
				continue
			}
			fn = f.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			line := fset.Position(sel.Pos()).Line
			if name := inTime(sel); clockWaits[name] {
				uses[line] = fn + ": time." + name
			} else if call, ok := sel.X.(*ast.CallExpr); ok && inTime(call.Fun) == "Now" &&
				(sel.Sel.Name == "After" || sel.Sel.Name == "Before" || sel.Sel.Name == "Sub") {
				uses[line] = fn + ": time.Now()." + sel.Sel.Name
			}
			return true
		})
	}
	return uses, nil
}

// TestNoTestWaitsOnTheClock: no test under internal/ or cmd/ sleeps, times
// out, or asserts elapsed time. A test waits on the event a sleep stood
// for, bounds work by a count, and leaves a hang to go test -timeout, which
// prints every goroutine. The exceptions are clockAllowed's, each of which
// must still be in use.
func TestNoTestWaitsOnTheClock(t *testing.T) {
	planted := []byte("package p\nimport clock \"time\"\n" +
		"func TestX() { clock.Sleep(1)\n for d := clock.Now(); clock.Now().Before(d); {} }\n" +
		"func BenchmarkY() { clock.Since(clock.Now()) }\n")
	if uses, err := clockUses("planted_test.go", planted); err != nil || len(uses) != 2 || uses[3] != "TestX: time.Sleep" || uses[4] != "TestX: time.Now().Before" {
		t.Fatalf("a planted sleep and deadline loop read as %q (%v); want both, in TestX, and nothing in the benchmark", uses, err)
	}
	used := map[string]bool{}
	files := 0
	walkRepo(t, func(path string) {
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, "_test.go") || !(strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")) {
			return
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		uses, err := clockUses(path, src)
		if err != nil {
			t.Fatal(err)
		}
		for line, use := range uses {
			key := path + ":" + use[:strings.Index(use, ":")]
			if _, ok := clockAllowed[key]; ok {
				used[key] = true
				continue
			}
			t.Errorf("%s:%d: %s; wait on an event or bound the work by a count", path, line, use)
		}
	})
	if files == 0 {
		t.Fatal("no test file found under internal/ or cmd/")
	}
	for key, why := range clockAllowed {
		if !used[key] {
			t.Errorf("%s is allowed the clock (%s) and no longer uses it: drop the entry", key, why)
		}
	}
	t.Logf("%d test files, %d allowed uses of the clock", files, len(used))
}
