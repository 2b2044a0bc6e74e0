package dyntc

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden")

// TestAPISurface pins the package's exported surface — every exported
// top-level name and every exported method of an exported type — to
// testdata/api.golden, so adding or removing a name is a visible change
// to that file. Regenerate it with
//
//	go test -run TestAPISurface -update-api .
func TestAPISurface(t *testing.T) {
	got := apiSurface(t)
	const golden = "testdata/api.golden"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		have[l] = true
	}
	pinned := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		pinned[l] = true
		if !have[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !pinned[l] {
			t.Errorf("added: %s", l)
		}
	}
	t.Errorf("exported API differs from %s; if the change is intended, rerun with -update-api", golden)
}

// apiSurface lists the package's exported names, one sorted line each:
// "const X", "var X", "type X", "func X" or "method T.M" (with T written
// "*T" for a pointer receiver).
func apiSurface(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				ptr := ""
				if star, ok := recv.(*ast.StarExpr); ok {
					ptr, recv = "*", star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					lines = append(lines, fmt.Sprintf("method %s%s.%s", ptr, id.Name, d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							lines = append(lines, "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								lines = append(lines, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
