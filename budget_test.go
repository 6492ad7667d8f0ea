package scsq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The surface budget is a ratchet: ROADMAP item 9 counts options, packages,
// wire message types and public engine methods, and each number only goes
// down. Raising a limit here is a design decision to argue for, not a fix.
const (
	maxWithOptions       = 38 // exported With* functions outside _test.go (target ≤ 30)
	maxInternalPackages  = 21 // directories directly under internal/ with non-test .go files (target ≤ 22)
	maxWireMessages      = 13 // Msg* constants of internal/server/wire
	maxEngineMethods     = 11 // exported methods of (*scsq.Engine)
	maxCoreEngineMethods = 19 // exported methods of (*core.Engine); building is on core.Query
)

// grantSelectors are vtime's unkeyed ways to grant virtual time. Outside
// internal/vtime only benchmark/ may call them: every engine charge is a
// keyed request chain through vtime.Submit.
var grantSelectors = map[string]bool{"UseAs": true, "Txn": true, "Reserve": true, "Commit": true}

func TestSurfaceBudget(t *testing.T) {
	var withs, msgs, methods, coreMethods, grants []string
	pkgs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && !strings.Contains(pkg, "/") {
			pkgs[dir] = true
		}
		if dir != "internal/vtime" && dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			ast.Inspect(src, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && grantSelectors[sel.Sel.Name] {
						grants = append(grants, fset.Position(call.Pos()).String()+" "+sel.Sel.Name)
					}
				}
				return true
			})
		}
		for _, decl := range src.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				name := x.Name.Name
				switch {
				case x.Recv == nil && strings.HasPrefix(name, "With"):
					withs = append(withs, path.Join("scsq", dir)+"."+name)
				case x.Recv != nil && dir == "." && x.Name.IsExported() && receiver(x) == "Engine":
					methods = append(methods, name)
				case x.Recv != nil && dir == "internal/core" && x.Name.IsExported() && receiver(x) == "Engine":
					coreMethods = append(coreMethods, name)
				}
			case *ast.GenDecl:
				if x.Tok != token.CONST || dir != "internal/server/wire" {
					continue
				}
				for _, spec := range x.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(id.Name, "Msg") {
							msgs = append(msgs, id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var internalPkgs []string
	for dir := range pkgs {
		internalPkgs = append(internalPkgs, dir)
	}
	for _, b := range []struct {
		what  string
		names []string
		max   int
	}{
		{"exported With* options", withs, maxWithOptions},
		{"internal packages", internalPkgs, maxInternalPackages},
		{"wire message types", msgs, maxWireMessages},
		{"exported (*scsq.Engine) methods", methods, maxEngineMethods},
		{"exported (*core.Engine) methods", coreMethods, maxCoreEngineMethods},
	} {
		if len(b.names) == 0 {
			t.Errorf("%s: found none — the budget test no longer sees the code", b.what)
		}
		if len(b.names) > b.max {
			sort.Strings(b.names)
			t.Errorf("%s: %d > budget %d:\n  %s", b.what, len(b.names), b.max, strings.Join(b.names, "\n  "))
		}
	}
	if len(grants) > 0 {
		t.Errorf("virtual time granted around vtime.Submit:\n  %s", strings.Join(grants, "\n  "))
	}
}

// receiver names the type of a method's receiver, pointer or not.
func receiver(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, _ := typ.(*ast.Ident)
	if id == nil {
		return ""
	}
	return id.Name
}
