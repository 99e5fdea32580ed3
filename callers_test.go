package kaleidoscope

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerlessAllowed names, as dir.Func or dir.Type.Method, the only exported
// functions and methods under internal/ that may go without a caller outside
// their own package's tests, each with the reason.
var callerlessAllowed = map[string]string{
	"internal/abtest.VisitorsNeededForSignificance": "EXPERIMENTS.md's Fig. 7(b) row: the visitors the paper's A/B test needs",
	"internal/aggregator.WithSequential":            "the reference Prepare the parallel pipeline is held to, byte for byte",
	"internal/quality.Features.Evaluate":            "held to the evaluate oracle; whether Reasons is served is ROADMAP item 8",
	"internal/earlystop.State.PBound":               "FuzzSequentialFold compares the bound across arrival orders",
	"internal/store.FaultFS.FailReads":              "a fault-injection test double, until ROADMAP item 2 replaces it",
	"internal/store.FaultFS.FlipReads":              "a fault-injection test double, until ROADMAP item 2 replaces it",
	"internal/store.FaultFS.Tripped":                "a fault-injection test double, until ROADMAP item 2 replaces it",
	"internal/store.WithSyncInterval":               "a test seam for the group-commit window, until ROADMAP item 1's clock seam exists",
}

// interfaceMethods are called through a standard-library interface, so no
// file names them.
var interfaceMethods = map[string]bool{
	"Unwrap": true, "Is": true, // errors.Is and errors.As
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true, // slog.Handler
}

// goFile is what callerless needs of one parsed Go file.
type goFile struct {
	dir      string // slash-separated, relative to the repository root
	test     bool
	file     *ast.File
	imported map[string]string // local name -> import path
}

// callerless returns, as dir.Func or dir.Type.Method, each exported function
// and method declared in a non-test file under internal/ that nothing outside
// its own package's tests reaches. A function is reached when a file in
// another directory selects it through its package's import path, or when a
// non-test file of its own package names it outside its own body; a method
// when any file but its own package's tests selects its name. module is the
// import path of the directory "." in files.
func callerless(module string, files []goFile) []string {
	type decl struct{ key, dir, name string }
	var funcs, methods []decl
	imported := map[string][]string{} // import path + "." + name -> dirs of the files that select it
	ownNamed := map[string]bool{}     // dir + "." + name, named by a non-test file of dir
	selected := map[string][]string{} // method name -> dirs of the files that select it, "test:" before a test file's
	for _, f := range files {
		for _, d := range f.file.Decls {
			var body ast.Node = d
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				if !f.test && strings.HasPrefix(f.dir, "internal/") && fn.Name.IsExported() {
					if fn.Recv == nil {
						funcs = append(funcs, decl{f.dir + "." + fn.Name.Name, f.dir, fn.Name.Name})
					} else if recv := receiverType(fn.Recv.List[0].Type); recv != "" {
						methods = append(methods, decl{f.dir + "." + recv + "." + fn.Name.Name, f.dir, fn.Name.Name})
					}
				}
				// Its name and signature call nothing, and a function's
				// calls of itself are no use.
				if body = fn.Body; fn.Body == nil {
					continue
				}
				if fn.Recv == nil {
					self = fn.Name.Name
				}
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if !f.test && n.Name != self {
						ownNamed[f.dir+"."+n.Name] = true
					}
				case *ast.SelectorExpr:
					noteSelector(f, n, imported, selected)
				}
				return true
			})
		}
	}
	var out []string
	for _, d := range funcs {
		used := ownNamed[d.dir+"."+d.name]
		for _, dir := range imported[path.Join(module, d.dir)+"."+d.name] {
			used = used || dir != d.dir
		}
		if !used {
			out = append(out, d.key)
		}
	}
	for _, d := range methods {
		if interfaceMethods[d.name] {
			continue
		}
		used := false
		for _, dir := range selected[d.name] {
			used = used || dir != "test:"+d.dir
		}
		if !used {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// noteSelector records f's directory under sel: as a reference through an
// import path when sel's operand is an import's name, else as a method name.
func noteSelector(f goFile, sel *ast.SelectorExpr, imported, selected map[string][]string) {
	if id, ok := sel.X.(*ast.Ident); ok {
		if p, ok := f.imported[id.Name]; ok {
			imported[p+"."+sel.Sel.Name] = append(imported[p+"."+sel.Sel.Name], f.dir)
			return
		}
	}
	dir := f.dir
	if f.test {
		dir = "test:" + dir
	}
	selected[sel.Sel.Name] = append(selected[sel.Sel.Name], dir)
}

// receiverType is the type name of a method's receiver, "" if it has none.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// parseGoFile parses src as the file at rel (slash-separated, relative to the
// repository root) and names its imports as the file does.
func parseGoFile(rel string, src []byte) (goFile, error) {
	file, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
	if err != nil {
		return goFile{}, err
	}
	f := goFile{dir: path.Dir(rel), test: strings.HasSuffix(rel, "_test.go"), file: file, imported: map[string]string{}}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imported[name] = p
	}
	return f, nil
}

// TestEveryExportedFuncHasACaller: every exported function and method under
// internal/ is reached from cmd/, examples/, bench/, another package's tests
// or its own package's code, or is one of callerlessAllowed's. A name that
// only its own tests call is behaviour nothing uses: delete it with its tests.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	planted := map[string]string{
		"internal/a/a.go":      "package a\nfunc Used() {}\nfunc Only() { Only() }\nfunc Inner() {}\nfunc Call() { Inner() }\ntype T struct{}\nfunc (T) M() {}\nfunc (T) N() {}\n",
		"internal/a/x_test.go": "package a_test\nimport \"m/internal/a\"\nfunc TestA() { a.Only(); a.T{}.N() }\n",
		"internal/b/b.go":      "package b\nimport \"m/internal/a\"\nfunc Run() { a.Used(); a.T{}.M(); Histogram() }\nfunc Histogram() {}\n",
		"internal/c/c.go":      "package c\nfunc Histogram() {}\n",
	}
	var files []goFile
	for rel, src := range planted {
		f, err := parseGoFile(rel, []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if got, want := strings.Join(callerless("m", files), " "), "internal/a.Call internal/a.Only internal/a.T.N internal/b.Run internal/c.Histogram"; got != want {
		t.Fatalf("planted names read as %q; want %q", got, want)
	}

	files = files[:0]
	walkRepo(t, func(p string) {
		p = filepath.ToSlash(p)
		if !strings.HasSuffix(p, ".go") || strings.Contains(p, "/testdata/") {
			return
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parseGoFile(p, src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	})
	unused := map[string]bool{}
	found := callerless("kaleidoscope", files)
	for _, key := range found {
		if _, ok := callerlessAllowed[key]; ok {
			unused[key] = true
			continue
		}
		t.Errorf("%s has no caller outside its own package's tests: delete it and the tests that hold it", key)
	}
	for key, why := range callerlessAllowed {
		if !unused[key] {
			t.Errorf("%s is allowed to go without a caller (%s) and now has one: drop the entry", key, why)
		}
	}
	t.Logf("%d Go files: %d exported names without a caller, %d of them allowed", len(files), len(found), len(unused))
}
