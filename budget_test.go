package scsq

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The surface budget is a ratchet: ROADMAP item 10 counts options, packages,
// wire message types and public engine methods, item 11 the lines of code,
// and each number only goes down. Raising a limit here is a design decision
// to argue for, not a fix.
const (
	maxWithOptions       = 19    // exported With* functions outside _test.go (target ≤ 30)
	maxInternalPackages  = 21    // directories directly under internal/ with non-test .go files (target ≤ 22)
	maxWireMessages      = 13    // Msg* constants of internal/server/wire
	maxEngineMethods     = 11    // exported methods of (*scsq.Engine)
	maxCoreEngineMethods = 19    // exported methods of (*core.Engine); building is on core.Query
	maxNonTestLines      = 21989 // lines of the non-test .go files outside benchmark/
)

// grantSelectors are vtime's unkeyed ways to grant virtual time. Outside
// internal/vtime only benchmark/ may call them: every engine charge is a
// keyed request chain through vtime.Submit.
var grantSelectors = map[string]bool{"UseAs": true, "Txn": true, "Reserve": true, "Commit": true}

// keptSetters are the only exported With* under internal/: one-line setters
// over core.Config and sched.Config that benchmark/ compiles against. Outside
// benchmark/ and tests nothing calls them; ROADMAP item 10 deletes them.
var keptSetters = map[string]bool{
	"scsq/internal/core.WithEnv":               true,
	"scsq/internal/core.WithMPIBufferBytes":    true,
	"scsq/internal/sched.WithPlacementPlanner": true,
}

func TestSurfaceBudget(t *testing.T) {
	var withs, msgs, methods, coreMethods, grants, internalWiths, setterCalls []string
	pkgs := map[string]bool{}
	lines := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build and cache directories
		}
		if d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		src, err := parser.ParseFile(fset, file, text, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && !strings.Contains(pkg, "/") {
			pkgs[dir] = true
		}
		if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			lines += bytes.Count(text, []byte("\n"))
			ast.Inspect(src, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				where := fset.Position(call.Pos()).String()
				switch fn := call.Fun.(type) {
				case *ast.SelectorExpr:
					if grantSelectors[fn.Sel.Name] && dir != "internal/vtime" {
						grants = append(grants, where+" "+fn.Sel.Name)
					}
					if pkg, ok := fn.X.(*ast.Ident); ok && keptSetters["scsq/internal/"+pkg.Name+"."+fn.Sel.Name] {
						setterCalls = append(setterCalls, where+" "+pkg.Name+"."+fn.Sel.Name)
					}
				case *ast.Ident:
					if keptSetters[path.Join("scsq", dir)+"."+fn.Name] {
						setterCalls = append(setterCalls, where+" "+fn.Name)
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
					if strings.HasPrefix(dir, "internal/") && !keptSetters[path.Join("scsq", dir)+"."+name] {
						internalWiths = append(internalWiths, path.Join("scsq", dir)+"."+name)
					}
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
	if lines > maxNonTestLines {
		t.Errorf("non-test .go lines outside benchmark/: %d > budget %d", lines, maxNonTestLines)
	}
	if len(grants) > 0 {
		t.Errorf("virtual time granted around vtime.Submit:\n  %s", strings.Join(grants, "\n  "))
	}
	// Functional options belong at the public boundary: the layers below
	// take a plain Config the root fills in.
	if len(internalWiths) > 0 {
		sort.Strings(internalWiths)
		t.Errorf("exported With* under internal/ beyond the kept setters (use a Config field):\n  %s", strings.Join(internalWiths, "\n  "))
	}
	if len(setterCalls) > 0 {
		t.Errorf("kept setters called outside benchmark/ and tests (pass a Config):\n  %s", strings.Join(setterCalls, "\n  "))
	}
}

// doorFiles are where processes run — the process packages, and the client
// plan's drain (core.ClientStream.Drain), an agent of the kernel like every
// process: every channel operation in their non-test files goes through the
// kernel's door (vtime.Recv, vtime.Send, vtime.Wait), so the kernel knows
// where each process is parked and hands the token on. keptChannelOps are
// the functions whose bare operations park no process.
var (
	doorFiles      = []string{"internal/rp/*.go", "internal/carrier/*.go", "internal/sqep/*.go", "internal/core/client.go"}
	keptChannelOps = map[string]bool{
		"RP.Wait":   true, // a caller outside the process waits for it to end
		"Link.Send": true, // the non-blocking abort check before a frame is charged
	}
)

// TestEveryWaitGoesThroughTheDoor fails on a channel receive, send or select
// in the door files outside the door and the kept functions. (A range over a
// channel is not caught: telling it from a range over a slice needs types.)
func TestEveryWaitGoesThroughTheDoor(t *testing.T) {
	var bare []string
	kept := map[string]bool{}
	fset := token.NewFileSet()
	for _, pattern := range doorFiles {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range src.Decls {
				name := "package scope"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name = fn.Name.Name
					if fn.Recv != nil {
						name = receiver(fn) + "." + name
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SendStmt, *ast.SelectStmt:
					case *ast.UnaryExpr:
						if x.Op != token.ARROW {
							return true
						}
					default:
						return true
					}
					if keptChannelOps[name] {
						kept[name] = true
					} else {
						bare = append(bare, fmt.Sprintf("%s in %s", fset.Position(n.Pos()), name))
					}
					return false
				})
			}
		}
	}
	if len(bare) > 0 {
		t.Errorf("channel operations outside the vtime door (use vtime.Recv, vtime.Send or vtime.Wait):\n  %s", strings.Join(bare, "\n  "))
	}
	for name := range keptChannelOps {
		if !kept[name] {
			t.Errorf("kept channel operation %s no longer exists: drop it from keptChannelOps", name)
		}
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
