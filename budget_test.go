package scsq

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	maxWithOptions       = 13    // exported With* functions outside _test.go (target ≤ 30)
	maxInternalPackages  = 21    // directories directly under internal/ with non-test .go files (target ≤ 22)
	maxWireMessages      = 13    // Msg* constants of internal/server/wire
	maxEngineMethods     = 9     // exported methods of (*scsq.Engine)
	maxCoreEngineMethods = 17    // exported methods of (*core.Engine); building is on core.Query
	maxNonTestLines      = 18843 // lines of the non-test .go files outside benchmark/
)

// keptEvaluators are the only places outside benchmark/ and tests that build
// a scsql.Evaluator: the scheduler, which builds every session, and the root
// Engine's Exec/Query, which benchmark/ still calls. Any other evaluator is a
// run path beside the session that no wire client can take.
var keptEvaluators = map[string]bool{"scsq.go": true, "internal/sched": true}

func TestSurfaceBudget(t *testing.T) {
	var withs, msgs, methods, coreMethods, internalWiths, evaluators, vtimeState []string
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
		if dir == "internal/vtime" {
			for _, imp := range src.Imports {
				if imp.Path.Value == `"unsafe"` {
					vtimeState = append(vtimeState, fset.Position(imp.Pos()).String()+" imports unsafe")
				}
			}
		}
		if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			lines += bytes.Count(text, []byte("\n"))
			ast.Inspect(src, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, ok := call.Fun.(*ast.SelectorExpr); ok && fn.Sel.Name == "NewEvaluator" && !keptEvaluators[filepath.ToSlash(file)] && !keptEvaluators[dir] {
					evaluators = append(evaluators, fset.Position(call.Pos()).String())
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
					if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && judgeOnly[pkg+"."+name] == "" {
						internalWiths = append(internalWiths, path.Join("scsq", dir)+"."+name)
					}
				case x.Recv != nil && dir == "." && x.Name.IsExported() && receiver(x) == "Engine":
					methods = append(methods, name)
				case x.Recv != nil && dir == "internal/core" && x.Name.IsExported() && receiver(x) == "Engine":
					coreMethods = append(coreMethods, name)
				}
			case *ast.GenDecl:
				if x.Tok == token.VAR && dir == "internal/vtime" {
					for _, spec := range x.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							vtimeState = append(vtimeState, fset.Position(id.Pos()).String()+" var "+id.Name)
						}
					}
				}
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
	// A kernel keeps its own state under its own lock: nothing in vtime is
	// shared by every kernel of the process, and no wait finds its waker
	// through a channel's address.
	if len(vtimeState) > 0 {
		t.Errorf("process-wide state in internal/vtime:\n  %s", strings.Join(vtimeState, "\n  "))
	}
	// Functional options belong at the public boundary: the layers below
	// take a plain Config the root fills in.
	if len(internalWiths) > 0 {
		sort.Strings(internalWiths)
		t.Errorf("exported With* under internal/ beyond judgeOnly's setters (use a Config field):\n  %s", strings.Join(internalWiths, "\n  "))
	}
	if len(evaluators) > 0 {
		t.Errorf("scsql.NewEvaluator called beside the scheduler and the root Engine (submit a session):\n  %s", strings.Join(evaluators, "\n  "))
	}
}

// doorFiles are where processes run — the process packages, the carriers
// that deliver their frames, and the client plan's drain
// (core.ClientStream.Drain), an agent of the kernel like every process:
// every channel operation in their non-test files goes through the kernel's
// door (vtime.Recv, vtime.Send, vtime.Wait), so the kernel knows
// where each process is parked and hands the token on. keptChannelOps are
// the functions whose bare operations park no process: none since RP.Wait
// waits on a latch, not a channel.
var (
	doorFiles      = []string{"internal/rp/*.go", "internal/carrier/*.go", "internal/tcpcar/*.go", "internal/mpicar/*.go", "internal/sqep/*.go", "internal/core/client.go"}
	keptChannelOps = map[string]bool{}
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

// testSeams are the exported names under internal/ that only tests use, and
// judgeOnly those that only benchmark/ (and tests) use, each with the reason
// it ships. TestNothingExportedForTestsAlone fails on an unlisted name, on an
// entry that no longer exists, on an entry production now uses and on a
// judgeOnly entry benchmark/ no longer uses, so either map only shrinks.
// judgeOnly's With* setters are also the only exported With* under internal/
// that TestSurfaceBudget allows.
var testSeams = map[string]string{
	"chaos.CrashAfterSends":              "a scripted crash the chaos, core and sched tests inject; the soak figure draws its faults from rates instead",
	"chaos.CrashAtVTime":                 "a scripted crash the chaos, core and sched tests inject; the soak figure draws its faults from rates instead",
	"core.ClientStream.QueryID":          "scsql's statement tests name a synchronous statement's query by it, and no other surface does",
	"metrics.Snapshot.Deterministic":     "the identity tests compare the virtual half of a snapshot, without the wall-clock series",
	"race.Enabled":                       "allocation pins skip under -race, whose instrumentation allocates",
	"scsql.Radix2Def":                    "the paper's radix-2 FFT listing (§2.4), which the parser, evaluator and scheduler tests run",
	"server/client.SessionHandle.Cancel": "cancels a handle and drops the rows its full queue cannot take, so the connection's other sessions keep flowing (CancelID does not); the client tests pin it",
	"sqep.Owned":                         "names the zero ValueUse, the default every consumer gets, which the lifetime tests ask for explicitly",
	"vtime.AnonymousOwner":               "the OwnerBusy key of grants charged to no query; only UseAs and Txn make those, so it goes with them",
	"vtime.Resource.FreeAt":              "the end of the last grant, exact across pruning: the schedule-identity tests compare it between runs",
	"vtime.Resource.SetRecorder":         "captures every grant in grant order: vtime's and core's replay tests rerun the log through UseAs and require the same schedule",
}

var judgeOnly = map[string]string{
	"coord.BGPoller.Shutdown":                "benchmark/ times a BlueGene placement through the poller; the engine places on bgCC (ROADMAP item 10)",
	"coord.Coordinator.SubmitBGPlacementFor": "benchmark/ times a BlueGene placement through the poller; the engine places on bgCC (ROADMAP item 10)",
	"coord.NewBGPoller":                      "benchmark/ times a BlueGene placement through the poller; the engine places on bgCC (ROADMAP item 10)",
	"core.WithEnv":                           "benchmark/ builds a core engine with it; production passes core.Config (ROADMAP item 10)",
	"core.WithMPIBufferBytes":                "benchmark/ builds a core engine with it; production passes core.Config (ROADMAP item 10)",
	"place.Planner.PlanPlacement":            "benchmark/'s place.plan probe; the scheduler calls AppendPlacement",
	"rp.PushElements":                        "benchmark/'s rp.push and rp.recv probes drive a sender without an engine",
	"rp.ReceiverConfig.TrackOffsets":         "has no effect; benchmark/ still sets it (ROADMAP item 11)",
	"sched.WithPlacementPlanner":             "benchmark/ installs a planner with it; production passes sched.Config (ROADMAP item 10)",
	"server/wire.AppendFrame":                "benchmark/'s wire probe frames a bag; the server writes rows through AppendRow",
	"server/wire.DecodeBag":                  "benchmark/'s wire probe reads a bag; the typed row codec is fuzzed against it (ROADMAP item 11)",
	"server/wire.EncodeBag":                  "benchmark/'s wire probe writes a bag; the typed row codec is fuzzed against it (ROADMAP item 11)",
	"server/wire.WireValue":                  "benchmark/'s wire probe lowers a value through it; AppendRow lowers values without the copy",
	"vtime.Resource.Txn":                     "an unkeyed grant benchmark/ times (vtime.txn_commit); every engine charge is a keyed chain through vtime.Submit",
	"vtime.Resource.UseAs":                   "an unkeyed grant benchmark/ times (vtime.useas); every engine charge is a keyed chain through vtime.Submit",
	"vtime.Txn.Commit":                       "an unkeyed grant benchmark/ times (vtime.txn_commit); every engine charge is a keyed chain through vtime.Submit",
	"vtime.Txn.Reserve":                      "an unkeyed grant benchmark/ times (vtime.txn_commit); every engine charge is a keyed chain through vtime.Submit",
}

// TestNothingExportedForTestsAlone is the reachability census. It
// type-checks the non-test files of the module and of benchmark/, and fails
// on each exported function, method, type, struct field, const and var under
// internal/ that no non-test file outside benchmark/ uses and neither map
// lists, and on each unexported function or method that no non-test file
// calls. A method counts as used when a used interface method has its name;
// String and Error always do.
func TestNothingExportedForTestsAlone(t *testing.T) {
	c := &census{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*types.Package{}}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || dir == "benchmark") {
			return filepath.SkipDir
		}
		_, err = c.Import(path.Join("scsq", filepath.ToSlash(dir)))
		return err
	})
	if err == nil {
		_, err = c.Import("scsq/benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	prod, judge := newUses(), newUses()
	for _, p := range c.checked {
		if p.pkg.Path() == "scsq/benchmark" {
			judge.collect(p)
		} else {
			prod.collect(p)
		}
	}
	decls := map[string]types.Object{}
	var unused []string
	for _, p := range c.checked {
		if p.pkg.Path() == "scsq/benchmark" {
			continue
		}
		internal := strings.HasPrefix(p.pkg.Path(), "scsq/internal/")
		for name, obj := range declared(p.pkg) {
			decls[name] = obj
			_, fn := obj.(*types.Func)
			uncalled := fn && !obj.Exported() && !(p.pkg.Name() == "main" && obj.Name() == "main")
			if (internal && obj.Exported() || uncalled) && !prod.has(obj) {
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	listed := map[string]bool{}
	for _, name := range unused {
		listed[name] = true
		obj, seam, judged := decls[name], testSeams[name] != "", judgeOnly[name] != ""
		where := c.fset.Position(obj.Pos()).String() + ": " + name
		switch byJudge := judge.has(obj); {
		case !obj.Exported():
			t.Errorf("%s: no non-test file calls it: delete it", where)
		case seam && judged:
			t.Errorf("%s: listed in both testSeams and judgeOnly", where)
		case byJudge && !judged:
			t.Errorf("%s: only benchmark/ and tests use it: delete it, or give it a judgeOnly entry with a reason", where)
		case !byJudge && judged:
			t.Errorf("%s: benchmark/ no longer uses it: delete it, or move it to testSeams with a reason", where)
		case !byJudge && !seam:
			t.Errorf("%s: only tests use it: delete it, or add it to testSeams with a reason", where)
		}
	}
	for seams, m := range map[string]map[string]string{"testSeams": testSeams, "judgeOnly": judgeOnly} {
		for name := range m {
			switch {
			case listed[name]:
			case decls[name] == nil:
				t.Errorf("%s no longer exists: drop it from %s", name, seams)
			case seams == "judgeOnly":
				t.Errorf("%s: production uses %s, a judgeOnly entry: only benchmark/ may call it", c.fset.Position(decls[name].Pos()), name)
			default:
				t.Errorf("%s: production uses %s: drop it from testSeams", c.fset.Position(decls[name].Pos()), name)
			}
		}
	}
}

// census type-checks the module's packages from their non-test files, in
// the build's configuration; the standard library comes from export data.
type census struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package
	checked []checkedPackage
}

type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// Import checks a package of the module once, or hands a standard one on. A
// directory without Go files gives a nil package.
func (c *census) Import(importPath string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(importPath, "scsq")
	if !ok || rel != "" && rel[0] != '/' {
		return c.std.Import(importPath)
	}
	if pkg, ok := c.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := "." + rel
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, e.Name()); err != nil || !match {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	c.pkgs[importPath] = nil
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	judge := importPath == "scsq/benchmark"
	if judge {
		// benchmark/ builds on 64-bit hosts only (rusage's Maxrss is an
		// int32 on 386); the checker records its uses past such an error.
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(importPath, c.fset, files, info)
	if err != nil && !judge {
		return nil, err
	}
	c.pkgs[importPath] = pkg
	c.checked = append(c.checked, checkedPackage{pkg, files, info})
	return pkg, nil
}

// declared names each package-level object of pkg, and each method and
// struct field of its named types, as dir.Name or dir.Type.Name, dir being
// the package's directory without internal/ ("scsq" for the root).
func declared(pkg *types.Package) map[string]types.Object {
	prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "scsq/"), "internal/") + "."
	out := map[string]types.Object{}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		out[prefix+name] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := range named.NumMethods() {
			out[prefix+name+"."+named.Method(i).Name()] = named.Method(i)
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if u.Field(i).Name() != "_" {
					out[prefix+name+"."+u.Field(i).Name()] = u.Field(i)
				}
			}
		case *types.Interface:
			for i := range u.NumExplicitMethods() {
				out[prefix+name+"."+u.ExplicitMethod(i).Name()] = u.ExplicitMethod(i)
			}
		}
	}
	return out
}

func newUses() uses { return uses{map[types.Object]bool{}, map[string]bool{}} }

// uses holds what a set of files refers to, and the names of the interface
// methods among it: a method with one of those names counts as used.
type uses struct {
	objs  map[types.Object]bool
	iface map[string]bool
}

func (u uses) has(obj types.Object) bool {
	if u.objs[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil && (u.iface[fn.Name()] || fn.Name() == "String" || fn.Name() == "Error")
}

// collect adds what p's files refer to, apart from a function's calls of
// itself: identifiers, the embedded fields a promoted selector goes
// through, and every field of an unkeyed struct literal.
func (u uses) collect(p checkedPackage) {
	use := func(obj types.Object) {
		switch x := obj.(type) {
		case *types.Func:
			obj = x.Origin()
			if recv := x.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				u.iface[x.Name()] = true
			}
		case *types.Var:
			obj = x.Origin()
		}
		u.objs[obj] = true
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			var self types.Object
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = p.info.Defs[fn.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					if obj := p.info.Uses[x]; obj != nil && obj != self {
						use(obj)
					}
				case *ast.SelectorExpr:
					sel := p.info.Selections[x]
					if sel == nil {
						break
					}
					typ := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if ptr, ok := typ.Underlying().(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						s, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						use(s.Field(i))
						typ = s.Field(i).Type()
					}
				case *ast.CompositeLit:
					typ := p.info.TypeOf(x)
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					s, ok := typ.Underlying().(*types.Struct)
					if !ok || len(x.Elts) == 0 {
						break
					}
					if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range s.NumFields() {
							use(s.Field(i))
						}
					}
				}
				return true
			})
		}
	}
}
