package batchsched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyKeep names the exported functions and methods under internal/
// that no program calls but that stay, each with the reason it stays. Like
// the check, it goes by name.
var testOnlyKeep = map[string]string{
	"Less":               "itemHeap's heap.Interface method: container/heap calls it",
	"Swap":               "itemHeap's heap.Interface method: container/heap calls it",
	"ValidatePrometheus": "the exposition-format oracle that tests in three packages check /metrics output against",
	"Spans":              "obs.Observer's read-only view of recorded spans that tests in three packages assert on",
	"Samples":            "obs.Observer's read-only view of sampled gauges that tests in three packages assert on",
	"Entries":            "obs.Audit's read-only view of recorded decisions that the obs and live-backend tests assert on",
	"LockedFiles":        "lock.Table's view that sched and history tests use to check that locks were released",
	"Checksum":           "live.Backend's fold of the rows its store scans read: the live test's proof that the scans ran",
}

// TestInternalFunctionsHaveCallers keeps test-only code out of internal/:
// every exported function or method declared in a non-test file under
// internal/ must be named by some non-test file of the module (bench/,
// cmd/ and examples/ included) outside its own declaration, unless
// testOnlyKeep names it. A function only tests call belongs in those
// tests, or its callers belong on the production path.
//
// The check matches names, not types: any identifier with the same name
// counts as a use. A name collision therefore hides an unused function;
// a method called Clone, for one, would pass through slices.Clone.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	type decl struct {
		name     string
		pos, end token.Pos
	}
	var decls []decl
	uses := map[string][]token.Pos{} // one file set: positions never collide across files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, decl{fd.Name.Name, fd.Pos(), fd.End()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, d := range decls {
		called := slices.ContainsFunc(uses[d.name], func(p token.Pos) bool {
			return p < d.pos || p >= d.end
		})
		switch {
		case called:
		case testOnlyKeep[d.name] != "":
			kept[d.name] = true
		default:
			t.Errorf("%s %s: no non-test file calls it; move it into its tests, or its callers onto the production path",
				fset.Position(d.pos), d.name)
		}
	}
	for name := range testOnlyKeep {
		if !kept[name] {
			t.Errorf("testOnlyKeep names %s, which is no longer an uncalled function under internal/", name)
		}
	}
}
