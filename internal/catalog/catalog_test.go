package catalog

import (
	"slices"
	"testing"
)

func TestLike(t *testing.T) {
	cases := []struct {
		pattern string
		in      string
		want    bool
	}{
		// Empty pattern matches everything.
		{"", "anything", true},
		{"", "", true},
		// No '%' is prefix shorthand.
		{"sched.", "sched.submitted", true},
		{"sched.", "rp.bytes_out.q1/sp0", false},
		{"rp.bytes", "rp.bytes_out.q1/sp0", true},
		// Trailing '%': classic prefix.
		{"rp.%", "rp.elements_out.q1/sp0", true},
		{"rp.%", "recv.frames.q1/c", false},
		// Leading '%': suffix.
		{"%.q1/sp0", "rp.bytes_out.q1/sp0", true},
		{"%.q1/sp0", "rp.bytes_out.q2/sp0", false},
		// '%' in the middle, and multiple.
		{"rp.%.q1/sp0", "rp.bytes_out.q1/sp0", true},
		{"rp.%.q1/sp0", "rp.bytes_out.q2/sp1", false},
		{"%bytes%", "rp.bytes_out.q1/sp0", true},
		{"%bytes%", "rp.elements_out.q1/sp0", false},
		{"link.%mpi%", "link.frames.mpi:bg:0->bg:1", true},
		{"link.%mpi%", "link.frames.tcp:fe:0->be:0", false},
		// Bare '%' matches everything, including empty.
		{"%", "", true},
		{"%", "x", true},
		// Adjacent '%%' collapses.
		{"a%%b", "axyzb", true},
		{"a%%b", "ab", true},
		// Greedy middle segments must still respect order.
		{"a%b%c", "a-b-c", true},
		{"a%b%c", "a-c-b", false},
		// Exact match via both anchors.
		{"sched.shed", "sched.shed", true},
		{"sched.shed", "sched.shedxx", true}, // prefix shorthand, no '%'
	}
	for _, c := range cases {
		if got := Like(c.pattern)(c.in); got != c.want {
			t.Errorf("Like(%q)(%q) = %v, want %v", c.pattern, c.in, got, c.want)
		}
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	tbl := &Table{
		Name:   "sys_demo",
		Doc:    "demo",
		Schema: Schema{{"id", TString}, {"n", TInt}},
		Snap: func(string) ([]Tuple, error) {
			return nil, nil
		},
	}
	if err := r.Register(tbl); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, ok := r.Lookup("sys_demo"); !ok {
		t.Fatalf("lookup failed")
	}
	// Case-insensitive, like SCSQL call names.
	if _, ok := r.Lookup("SYS_DEMO"); !ok {
		t.Fatalf("case-insensitive lookup failed")
	}
	if _, ok := r.Lookup("sys_other"); ok {
		t.Fatalf("lookup of unregistered table succeeded")
	}

	// Replacement installs the newer provider.
	repl := &Table{
		Name:   "sys_demo",
		Schema: Schema{{"id", TString}},
		Snap: func(string) ([]Tuple, error) {
			return []Tuple{{Schema: Schema{{"id", TString}}, Vals: []any{"new"}}}, nil
		},
	}
	if err := r.Register(repl); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	got, _ := r.Lookup("sys_demo")
	rows, err := got.Snap("")
	if err != nil || len(rows) != 1 || rows[0].Vals[0] != "new" {
		t.Fatalf("replacement not installed: rows=%v err=%v", rows, err)
	}
}

func TestRegistryRejectsBadTables(t *testing.T) {
	r := NewRegistry()
	snap := func(string) ([]Tuple, error) { return nil, nil }
	bad := []*Table{
		nil,
		{Name: "", Schema: Schema{{"a", TInt}}, Snap: snap},
		{Name: "t", Schema: nil, Snap: snap},
		{Name: "t", Schema: Schema{{"a", TInt}}, Snap: nil},
		{Name: "t", Schema: Schema{{"a", TInt}, {"a", TInt}}, Snap: snap},
		{Name: "t", Schema: Schema{{"", TInt}}, Snap: snap},
	}
	for i, tbl := range bad {
		if err := r.Register(tbl); err == nil {
			t.Errorf("case %d: bad table registered without error", i)
		}
	}
}

func TestRegistryTablesSorted(t *testing.T) {
	r := NewRegistry()
	snap := func(string) ([]Tuple, error) { return nil, nil }
	for _, name := range []string{"sys_rps", "sys_links", "sys_nodes"} {
		if err := r.Register(&Table{Name: name, Schema: Schema{{"x", TInt}}, Snap: snap}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	got := r.Tables()
	want := []string{"sys_links", "sys_nodes", "sys_rps", "sys_tables"} // the registry lists itself
	if len(got) != len(want) {
		t.Fatalf("Tables() = %d entries, want %d", len(got), len(want))
	}
	for i, tbl := range got {
		if tbl.Name != want[i] {
			t.Fatalf("Tables()[%d] = %s, want %s", i, tbl.Name, want[i])
		}
	}
}

func TestTupleFieldKeyString(t *testing.T) {
	sch := Schema{{"id", TString}, {"n", TInt}}
	tp := Tuple{Schema: sch, Vals: []any{"q1", int64(4)}}
	if v, ok := tp.Field("id"); !ok || v != "q1" {
		t.Fatalf("Field(id) = %v, %v", v, ok)
	}
	if v, ok := tp.Field("n"); !ok || v != int64(4) {
		t.Fatalf("Field(n) = %v, %v", v, ok)
	}
	if _, ok := tp.Field("missing"); ok {
		t.Fatalf("Field(missing) resolved")
	}
	if got := tp.String(); got != "{id=q1, n=4}" {
		t.Fatalf("String() = %q", got)
	}
	other := Tuple{Schema: sch, Vals: []any{"q1", int64(5)}}
	if tp.Key() == other.Key() {
		t.Fatalf("distinct tuples share key %q", tp.Key())
	}
	same := Tuple{Schema: sch, Vals: []any{"q1", int64(4)}}
	if tp.Key() != same.Key() {
		t.Fatalf("equal tuples have different keys")
	}
}

func TestRowArityGuard(t *testing.T) {
	tbl := &Table{Name: "t", Schema: Schema{{"a", TInt}, {"b", TInt}}}
	defer func() {
		if recover() == nil {
			t.Fatalf("Row with wrong arity did not panic")
		}
	}()
	tbl.Row(int64(1))
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{"cluster", TString}, {"node", TInt}}
	if s.Index("node") != 1 || s.Index("nope") != -1 {
		t.Fatalf("Index misbehaves")
	}
	if got := s.String(); got != "(cluster string, node int)" {
		t.Fatalf("String() = %q", got)
	}
	n := s.Names()
	if len(n) != 2 || n[0] != "cluster" || n[1] != "node" {
		t.Fatalf("Names() = %v", n)
	}
	if back, err := ParseSchema(s.String()); err != nil || !slices.Equal(back, s) {
		t.Fatalf("ParseSchema(%q) = %v, %v; want the schema back", s, back, err)
	}
	for _, bad := range []string{"", "cluster string", "(cluster)", "( string)"} {
		if got, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) = %v, want an error", bad, got)
		}
	}
}

// TestSysTablesListsTheRegistry: the catalog describes itself — sys_tables is
// there from NewRegistry on, lists itself, and follows every Register.
func TestSysTablesListsTheRegistry(t *testing.T) {
	r := NewRegistry()
	self, ok := r.Lookup("sys_tables")
	if !ok {
		t.Fatal("a new registry has no sys_tables")
	}
	snap := func(string) ([]Tuple, error) { return nil, nil }
	if err := r.Register(&Table{Name: "sys_demo", Doc: "a demo", TakesPattern: true,
		Schema: Schema{{"id", TString}, {"n", TInt}}, Snap: snap}); err != nil {
		t.Fatal(err)
	}
	rows, err := self.Snap("")
	if err != nil || len(rows) != 2 {
		t.Fatalf("sys_tables: %d rows, err %v; want sys_demo and itself", len(rows), err)
	}
	if got := rows[0].Key(); got != "sys_demo\x1fa demo\x1f(id string, n int)\x1f1" {
		t.Errorf("sys_demo row = %s", rows[0])
	}
	if name, _ := rows[1].Field("name"); name != "sys_tables" {
		t.Errorf("sys_tables does not list itself: %s", rows[1])
	}
	if cols, _ := rows[1].Field("columns"); cols != self.Schema.String() {
		t.Errorf("sys_tables describes itself as %v, its schema is %s", cols, self.Schema)
	}
}
