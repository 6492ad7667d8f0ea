package scsql

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"scsq/internal/core"
)

func execErr(t *testing.T, src string) error {
	t.Helper()
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	res, err := ev.Exec(src)
	if err != nil {
		return err
	}
	if res.Stream != nil {
		if _, derr := res.Stream.Drain(); derr != nil {
			return derr
		}
	}
	t.Fatalf("statement unexpectedly succeeded: %s", src)
	return nil
}

func wantErrContaining(t *testing.T, src, fragment string) {
	t.Helper()
	err := execErr(t, src)
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q\nquery: %s", err, fragment, src)
	}
}

func TestEvalErrors(t *testing.T) {
	t.Run("unknown function", func(t *testing.T) {
		wantErrContaining(t, `select nosuchfn(extract(a)) from sp a where a=sp(iota(1,2), 'be');`, "unknown function")
	})
	t.Run("unbound variable", func(t *testing.T) {
		wantErrContaining(t, `select extract(zz) from sp a where a=sp(iota(1,2), 'be');`, "unbound variable")
	})
	t.Run("declared but never bound", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a, sp b where a=sp(iota(1,2), 'be');`, "never bound")
	})
	t.Run("bound twice", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=sp(iota(1,2), 'be') and a=sp(iota(1,2), 'be');`, "bound twice")
	})
	t.Run("cyclic bindings", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a, sp b where a=sp(extract(b), 'be') and b=sp(extract(a), 'be');`, "cyclic")
	})
	t.Run("unknown cluster", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=sp(iota(1,2), 'zz');`, "unknown cluster")
	})
	t.Run("type mismatch sp", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=4;`, "declared 'sp'")
	})
	t.Run("type mismatch integer", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a, integer n where a=sp(iota(1,2), 'be') and n=sp(iota(1,1), 'be');`, "declared 'integer'")
	})
	t.Run("two drivers", func(t *testing.T) {
		wantErrContaining(t, `select x from integer x, integer y where x in iota(1,2) and y in iota(1,2);`, "at most one 'in'")
	})
	t.Run("predicate without iteration", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a, integer n where a=sp(iota(1,2), 'be') and n=1 and n > 0;`, "require an 'in' iteration")
	})
	t.Run("non-boolean predicate", func(t *testing.T) {
		wantErrContaining(t, `select x from integer x where x in extract(a) and x + 1;`, "must be a binding")
	})
	t.Run("division by zero", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a, integer n where a=sp(iota(1,n/0), 'be') and n=4;`, "division by zero")
	})
	t.Run("sp arity", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=sp();`, "sp() takes")
	})
	t.Run("spv needs subquery", func(t *testing.T) {
		wantErrContaining(t, `select merge(a) from bag of sp a where a=spv(iota(1,2), 'be');`, "must be a subquery")
	})
	t.Run("allocation function unknown", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=sp(iota(1,2), 'be', wat());`, "unknown allocation-sequence function")
	})
	t.Run("filename without table", func(t *testing.T) {
		wantErrContaining(t, `select merge(spv((select grep('x', filename(i)) from integer i where i in iota(1,2)), 'be'));`, "no file table")
	})
	t.Run("radixcombine requires merge", func(t *testing.T) {
		wantErrContaining(t, `select radixcombine(extract(a)) from sp a where a=sp(iota(1,2), 'be');`, "requires merge")
	})
	t.Run("radixcombine needs two processes", func(t *testing.T) {
		wantErrContaining(t, `select radixcombine(merge({a})) from sp a where a=sp(iota(1,2), 'be');`, "exactly two")
	})
	t.Run("winagg kind", func(t *testing.T) {
		wantErrContaining(t, `select winagg(extract(a), 'median', 3, 3) from sp a where a=sp(iota(1,9), 'be');`, "unknown window aggregate")
	})
	t.Run("iterate over scalar", func(t *testing.T) {
		wantErrContaining(t, `select merge(spv((select gen_array(10,1) from integer i where i in 5), 'be'));`, "cannot iterate")
	})
	t.Run("scalar misuse", func(t *testing.T) {
		wantErrContaining(t, `select extract(a) from sp a where a=sp(gen_array('big', 1), 'be');`, "expected an integer")
	})
}

func TestBGNodeExhaustionFailsQuery(t *testing.T) {
	// "In case the stream contains no available node, the query will fail."
	// Two SPs pinned to the same BG node: CNK runs one process per node.
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	_, err := ev.Exec(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 1)
and   a=sp(gen_array(1000,1), 'bg', 1);`)
	if err == nil || !strings.Contains(err.Error(), "no available node") {
		t.Fatalf("err = %v, want no-available-node failure", err)
	}
}

func TestUserFunctionArityAndScope(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	if _, err := ev.Exec(`create function two(integer n) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');`); err != nil {
		t.Fatal(err)
	}
	// Wrong arity.
	if _, err := ev.Exec(`select two();`); err == nil || !strings.Contains(err.Error(), "takes 1 arguments") {
		t.Fatalf("arity error = %v", err)
	}
	// Wrong parameter type.
	if _, err := ev.Exec(`select two('x');`); err == nil {
		t.Fatal("string for integer parameter should fail")
	}
	// Function bodies must not see caller variables beyond parameters.
	e.Reset()
	if _, err := ev.Exec(`create function leaky() -> stream as select extract(q) from sp q where q=sp(iota(1,outer), 'be');`); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Exec(`select leaky() from integer outer where outer=3;`)
	if err == nil {
		if _, err = res.Stream.Drain(); err == nil {
			t.Fatal("function body must not capture caller bindings")
		}
	}
}

func TestCatalog(t *testing.T) {
	var cat Catalog
	if _, ok := cat.Lookup("f"); ok {
		t.Error("empty catalog lookup should miss")
	}
	cat.Define(&FuncDef{Name: "F2"})
	cat.Define(&FuncDef{Name: "a1"})
	if _, ok := cat.Lookup("f2"); !ok {
		t.Error("lookup must be case-insensitive")
	}
	names := slices.Sorted(maps.Keys(cat.defs))
	if len(names) != 2 || names[0] != "a1" || names[1] != "f2" {
		t.Errorf("names = %v", names)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	if ev.Catalog() == nil {
		t.Error("default catalog must exist")
	}
	cat := &Catalog{}
	ev2 := NewEvaluator(e, cat)
	if ev2.Catalog() != cat {
		t.Error("provided catalog must be used")
	}
}

func TestDefaultClusterIsBlueGene(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	res, err := ev.Exec(`select extract(a) from sp a where a=sp(iota(1,3));`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Stream.Drain(); err != nil {
		t.Fatal(err)
	}
}

var _ = core.Engine{} // keep the core import for newTestEngine's option types

// TestNeverBoundNamesTheFirstDeclared: with several declared variables left
// unbound, the error names the first in declaration order, at its
// declaration, every time.
func TestNeverBoundNamesTheFirstDeclared(t *testing.T) {
	const src = `select extract(a) from sp a, sp b, sp c, sp d;`
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first := stmt.Query.From[0]
	ev := NewEvaluator(newTestEngine(t), nil)
	for i := 0; i < 50; i++ {
		_, err := ev.Exec(src)
		var syn *SyntaxError
		if !errors.As(err, &syn) {
			t.Fatalf("run %d: %v, want a positioned error", i, err)
		}
		if !strings.Contains(syn.Msg, `"a" is never bound`) || syn.Pos != first.Pos {
			t.Fatalf("run %d: %q at %v, want \"a\" at its declaration %v", i, syn.Msg, syn.Pos, first.Pos)
		}
	}
}
