// Package catalog is the queryable system catalog: a registry of virtual
// system tables (sys_sessions, sys_nodes, sys_links, sys_metrics, sys_rps,
// sys_resources, and sys_tables — the catalog describing itself) with typed,
// ordered schemas, each backed by a lock-safe snapshot provider registered
// by the subsystem that owns the data. The paper's thesis — the
// environment is measured by stream queries — applied to the system itself:
// SCSQL lowers the tables as first-class relations, so a dashboard, an
// admission policy or a test is literally a stream query over the system.
//
// Snapshot-consistency contract: a provider's Snap must capture its rows
// under at most one subsystem lock at a time, must never call back into the
// engine's build or drain paths, and must never charge virtual time —
// introspection is free in the model and must not perturb the measured
// workload (the bench -fig sysq gate proves Figure 6 schedules bit-identical
// with an active subscriber).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Type is a column's value type. Values in a Tuple are the evaluator's
// runtime representations: TString is a Go string, TInt an int64.
type Type string

// Column types. Booleans are represented as TInt 0/1, matching SCSQL's
// integer-centric scalar comparisons.
const (
	TString Type = "string"
	TInt    Type = "int"
)

// Column is one named, typed column of a system table.
type Column struct {
	Name string
	Type Type
}

// Schema is a table's ordered column list.
type Schema []Column

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(name type, ...)" — the spelling the
// DESIGN.md §13 schema table and the drift-guard test key on.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + string(c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseSchema is the inverse of Schema.String: it reads the columns column
// of a sys_tables row back into a schema, for a reader that received the
// catalog over the wire and has no *Table to ask.
func ParseSchema(s string) (Schema, error) {
	inner, ok := strings.CutPrefix(s, "(")
	inner, ok2 := strings.CutSuffix(inner, ")")
	if !ok || !ok2 {
		return nil, fmt.Errorf("catalog: schema %q is not of the form (name type, ...)", s)
	}
	var out Schema
	for _, col := range strings.Split(inner, ", ") {
		name, typ, ok := strings.Cut(col, " ")
		if !ok || name == "" {
			return nil, fmt.Errorf("catalog: schema %q: column %q is not \"name type\"", s, col)
		}
		out = append(out, Column{Name: name, Type: Type(typ)})
	}
	return out, nil
}

// Tuple is one row of a system table: values aligned with the table's
// schema, so consumers can access fields by name (SCSQL's t.field syntax)
// instead of by position.
type Tuple struct {
	Schema Schema
	Vals   []any
}

// Field returns the value of the named column.
func (t Tuple) Field(name string) (any, bool) {
	i := t.Schema.Index(name)
	if i < 0 || i >= len(t.Vals) {
		return nil, false
	}
	return t.Vals[i], true
}

// String renders the tuple as {name=value, ...} for shell output and
// error messages.
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, c := range t.Schema {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte('=')
		if i < len(t.Vals) {
			fmt.Fprintf(&sb, "%v", t.Vals[i])
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Key is the tuple's value fingerprint: two tuples of one table compare
// equal iff their keys do. The live-delta stream (streamof over a system
// table) uses it to decide which rows changed between ticks.
func (t Tuple) Key() string {
	var sb strings.Builder
	for i, v := range t.Vals {
		if i > 0 {
			sb.WriteByte('\x1f') // unit separator: values cannot fake a boundary
		}
		fmt.Fprintf(&sb, "%v", v)
	}
	return sb.String()
}

// Table is one registered virtual system table.
type Table struct {
	// Name is the table's SCSQL relation name, by convention "sys_*".
	Name string
	// Doc is a one-line description shown by the shell's \d command.
	Doc string
	// Schema is the typed, ordered column list of every row Snap returns.
	Schema Schema
	// TakesPattern marks tables accepting one optional SQL-LIKE argument
	// (sys_metrics('rp.%')); the pattern reaches Snap, "" when absent.
	TakesPattern bool
	// Snap captures a consistent snapshot of the table's rows. It must be
	// safe to call from any goroutine at any time (see the package contract).
	Snap func(pattern string) ([]Tuple, error)
}

// Row builds one schema-aligned tuple of t, failing loudly on arity drift
// so a provider cannot silently ship rows its schema does not describe.
func (t *Table) Row(vals ...any) Tuple {
	if len(vals) != len(t.Schema) {
		panic(fmt.Sprintf("catalog: %s row has %d values, schema has %d columns", t.Name, len(vals), len(t.Schema)))
	}
	return Tuple{Schema: t.Schema, Vals: vals}
}

// Registry maps table names to their providers. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewRegistry returns a registry holding one table: sys_tables, the listing
// of the registry itself (so it lists itself), one row per Tables() entry.
// columns is the table's Schema.String(); takes_pattern is 0/1.
func NewRegistry() *Registry {
	r := &Registry{tables: make(map[string]*Table)}
	t := &Table{
		Name: "sys_tables",
		Doc:  "the system catalog itself: every registered table with its schema",
		Schema: Schema{
			{Name: "name", Type: TString},
			{Name: "doc", Type: TString},
			{Name: "columns", Type: TString},
			{Name: "takes_pattern", Type: TInt},
		},
	}
	t.Snap = func(string) ([]Tuple, error) {
		tabs := r.Tables()
		rows := make([]Tuple, len(tabs))
		for i, tab := range tabs {
			takes := int64(0)
			if tab.TakesPattern {
				takes = 1
			}
			rows[i] = t.Row(tab.Name, tab.Doc, tab.Schema.String(), takes)
		}
		return rows, nil
	}
	r.tables[t.Name] = t
	return r
}

// Register installs (or replaces) a table provider. Replacement is
// deliberate: re-attaching a scheduler to an engine re-registers
// sys_sessions over the previous scheduler's provider.
func (r *Registry) Register(t *Table) error {
	if t == nil || t.Name == "" || t.Snap == nil || len(t.Schema) == 0 {
		return fmt.Errorf("catalog: table needs a name, a schema and a snapshot provider")
	}
	seen := make(map[string]bool, len(t.Schema))
	for _, c := range t.Schema {
		if c.Name == "" || seen[c.Name] {
			return fmt.Errorf("catalog: table %s has an empty or duplicate column %q", t.Name, c.Name)
		}
		seen[c.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[strings.ToLower(t.Name)] = t
	return nil
}

// Lookup returns the named table, if registered.
func (r *Registry) Lookup(name string) (*Table, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns every registered table, sorted by name.
func (r *Registry) Tables() []*Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Table, 0, len(r.tables))
	for _, t := range r.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Like compiles a SQL-LIKE pattern into a matcher. '%' matches any run of
// characters, anywhere in the pattern ('rp.%', '%.bytes.%', 'link.%mpi%').
// Two pragmatic extensions: an empty pattern matches everything, and a
// pattern without any '%' is prefix shorthand ('sched.' ≡ 'sched.%'), as the
// shell's \stats prefixes are spelled.
func Like(pattern string) func(string) bool {
	if pattern == "" {
		return func(string) bool { return true }
	}
	if !strings.Contains(pattern, "%") {
		return func(s string) bool { return strings.HasPrefix(s, pattern) }
	}
	segs := strings.Split(pattern, "%")
	return func(s string) bool {
		// First segment is anchored at the start, last at the end; middle
		// segments match greedily left to right.
		if !strings.HasPrefix(s, segs[0]) {
			return false
		}
		s = s[len(segs[0]):]
		last := len(segs) - 1
		for i := 1; i < last; i++ {
			seg := segs[i]
			if seg == "" {
				continue
			}
			j := strings.Index(s, seg)
			if j < 0 {
				return false
			}
			s = s[j+len(seg):]
		}
		return strings.HasSuffix(s, segs[last])
	}
}
