// Command scsq-shell evaluates SCSQL statements against a simulated LOFAR
// environment: interactively (a statement per ';'), from -e flags, or from
// files given as arguments.
//
//	scsq-shell -e "select extract(b) from sp a, sp b where ...;"
//	scsq-shell queries.scsql
//	scsq-shell                        # REPL on an in-process engine
//	scsq-shell -connect 10.0.0.7:9292 # REPL against a remote scsq-server
//
// With -connect the shell speaks the SCSQL wire protocol to an scsq-server
// instead of embedding an engine: statements run as remote scheduler
// sessions with results streamed back incrementally, and the same meta
// commands work against the server's catalog (including sys_conns, the
// serving layer's own table). Engine-construction flags (-mpibuf, -single,
// -realtcp) and the local-only -utilization/-explain reports apply only to
// the in-process mode.
//
// Each query prints its result elements, the virtual makespan, and — with
// -payload — the measured streaming bandwidth.
//
// Backslash meta commands inspect the engine between statements, rendered
// from the system catalog (the same sys_* tables SCSQL queries directly):
// "\stats [pattern]" prints sys_metrics rows, filtered by a SQL-LIKE
// pattern ('%' anywhere; a plain string is a prefix); a session id
// ("\stats q3" or "\stats @q3") scopes the dump to that query's metrics
// (in-process mode only; a statement run by the shell itself is retired by
// the Reset that follows it, which folds its per-RP keys into "…retired").
// Keys that name no query (link.*, sched.*) and totals by prefix survive
// across statements, so \stats after a query reports that query's traffic. "\ps" prints
// sys_sessions (the scheduler's session table), "\d [table]" lists catalog
// tables or one table's schema, and "\cancel <qid>" cancels a session —
// queries submitted through the SCSQL surface run as scheduler sessions
// (see ps() and cancel() in SCSQL itself).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"scsq"
	"scsq/internal/server/client"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scsq-shell:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exec    = flag.String("e", "", "SCSQL statements to execute (';'-separated)")
		connect = flag.String("connect", "", "host:port of an scsq-server to run against (default: in-process engine)")
		token   = flag.String("token", "", "auth token for -connect handshakes")
		payload = flag.Int64("payload", 0, "payload bytes for bandwidth reporting (0 = no bandwidth line)")
		mpiBuf  = flag.Int("mpibuf", 64*1024, "MPI driver send-buffer size in bytes")
		single  = flag.Bool("single", false, "use single-buffered MPI drivers")
		util    = flag.Int("utilization", 0, "print the N busiest simulated resources after each query")
		explain = flag.Bool("explain", false, "print the query's communication topology after each query")
		realNet = flag.Bool("realtcp", false, "carry cross-cluster streams over real loopback sockets")
	)
	flag.Parse()

	sh := &shell{out: os.Stdout}
	if *connect != "" {
		cli, err := client.Dial(*connect, client.Options{Token: *token})
		if err != nil {
			return err
		}
		defer cli.Close()
		sh.exec = &remoteExec{cli: cli, payload: *payload}
		sh.banner = fmt.Sprintf("connected to %s (%s) as %s", *connect, cli.ServerName, cli.ConnID)
	} else {
		opts := []scsq.Option{scsq.WithMPIBufferBytes(*mpiBuf)}
		if *single {
			opts = append(opts, scsq.WithSingleBuffering())
		}
		if *realNet {
			opts = append(opts, scsq.WithRealTCP())
		}
		eng, err := scsq.New(opts...)
		if err != nil {
			return err
		}
		defer eng.Close()
		sh = newLocalShell(eng, *payload, *util, *explain, os.Stdout)
	}

	if *exec != "" {
		return sh.runSource(*exec)
	}
	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := sh.runSource(string(data)); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
		return nil
	}
	return sh.repl(os.Stdin)
}

// executor abstracts where statements run — the in-process engine or a
// remote scsq-server — so the REPL and meta commands are mode-agnostic.
type executor interface {
	// Execute runs one SCSQL statement and writes its results to out.
	Execute(stmt string, out io.Writer) error
	// Tables lists the system catalog.
	Tables() ([]tableDesc, error)
	// Rows snapshots one catalog table: column names plus value rows.
	Rows(table, pattern string) ([]string, [][]any, error)
	// Cancel cancels a scheduler session by id.
	Cancel(id string) error
}

// tableDesc is one catalog table as the shell renders it.
type tableDesc struct {
	Name, Doc, Schema string
	TakesPattern      bool
}

type shell struct {
	exec   executor
	eng    *scsq.Engine // non-nil in-process only: enables @qid-scoped \stats
	banner string
	out    io.Writer
}

// newLocalShell wires a shell around an in-process engine.
func newLocalShell(eng *scsq.Engine, payload int64, util int, explain bool, out io.Writer) *shell {
	return &shell{
		exec: &localExec{eng: eng, payload: payload, util: util, explain: explain},
		eng:  eng,
		out:  out,
	}
}

// runSource executes every ';'-terminated statement in src.
func (s *shell) runSource(src string) error {
	for _, stmt := range splitStatements(src) {
		if err := s.execute(stmt); err != nil {
			return err
		}
	}
	return nil
}

// repl reads statements from r until EOF, reporting errors without exiting.
func (s *shell) repl(r io.Reader) error {
	fmt.Fprintln(s.out, "SCSQ shell — terminate statements with ';', Ctrl-D to exit.")
	if s.banner != "" {
		fmt.Fprintln(s.out, "--", s.banner)
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var pending strings.Builder
	prompt := func() { fmt.Fprint(s.out, "scsql> ") }
	prompt()
	for scanner.Scan() {
		if line := strings.TrimSpace(scanner.Text()); strings.HasPrefix(line, `\`) &&
			strings.TrimSpace(pending.String()) == "" {
			if err := s.meta(line); err != nil {
				fmt.Fprintln(s.out, "error:", err)
			}
			prompt()
			continue
		}
		pending.WriteString(scanner.Text())
		pending.WriteByte('\n')
		if strings.Contains(scanner.Text(), ";") {
			for _, stmt := range splitStatements(pending.String()) {
				if err := s.execute(stmt); err != nil {
					fmt.Fprintln(s.out, "error:", err)
				}
			}
			pending.Reset()
			prompt()
		}
	}
	fmt.Fprintln(s.out)
	return scanner.Err()
}

// execute runs one statement and prints its outcome.
func (s *shell) execute(stmt string) error {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" {
		return nil
	}
	if strings.HasPrefix(stmt, `\`) {
		return s.meta(stmt)
	}
	return s.exec.Execute(stmt, s.out)
}

// localExec runs statements on an embedded engine, one at a time with a
// reset in between — the original shell behavior.
type localExec struct {
	eng     *scsq.Engine
	payload int64
	util    int
	explain bool
}

func (l *localExec) Execute(stmt string, out io.Writer) error {
	res, err := l.eng.Exec(stmt + ";")
	if err != nil {
		return err
	}
	if res.Defined != "" {
		fmt.Fprintf(out, "defined function %s\n", res.Defined)
		return nil
	}
	els, err := res.Stream.Drain()
	if err != nil {
		return err
	}
	for _, el := range els {
		fmt.Fprintf(out, "%v\n", formatValue(el.Value))
	}
	fmt.Fprintf(out, "-- %d element(s), virtual makespan %v\n", len(els), res.Stream.Makespan())
	if l.payload > 0 {
		fmt.Fprintf(out, "-- bandwidth %.1f Mbps over %d payload bytes\n",
			res.Stream.BandwidthMbps(l.payload), l.payload)
	}
	if l.util > 0 {
		fmt.Fprintf(out, "-- busiest resources:\n")
		for _, u := range l.eng.Utilization(res.Stream, l.util) {
			fmt.Fprintf(out, "--   %-12s %12v %6.1f%%\n", u.Resource, u.Busy, u.Share*100)
		}
	}
	if l.explain {
		fmt.Fprintf(out, "-- communication topology:\n")
		for _, ed := range l.eng.Topology() {
			fmt.Fprintf(out, "--   %-12s (%s) --%s--> %s (%s)\n", ed.Producer, ed.From, ed.Carrier, ed.Consumer, ed.To)
		}
	}
	if err := l.eng.Reset(); err != nil {
		return fmt.Errorf("reset after statement: %w", err)
	}
	return nil
}

func (l *localExec) Tables() ([]tableDesc, error) {
	var out []tableDesc
	for _, tab := range l.eng.SystemTables() {
		out = append(out, tableDesc{Name: tab.Name, Doc: tab.Doc, Schema: tab.Schema(), TakesPattern: tab.TakesPattern})
	}
	return out, nil
}

func (l *localExec) Rows(table, pattern string) ([]string, [][]any, error) {
	var cols []string
	for _, tab := range l.eng.SystemTables() {
		if tab.Name == table {
			for _, c := range tab.Columns {
				cols = append(cols, c.Name)
			}
		}
	}
	rows, err := l.eng.SystemRows(table, pattern)
	return cols, rows, err
}

func (l *localExec) Cancel(id string) error { return l.eng.CancelSession(id) }

// remoteExec runs statements as sessions of a remote scsq-server; results
// stream back incrementally and print as they arrive.
type remoteExec struct {
	cli     *client.Client
	payload int64
}

func (r *remoteExec) Execute(stmt string, out io.Writer) error {
	h, err := r.cli.Submit(stmt+";", 0)
	if err != nil {
		return err
	}
	n := 0
	for {
		row, ok, fin := h.Recv()
		if ok {
			fmt.Fprintf(out, "%v\n", formatValue(row.Value))
			n++
			continue
		}
		if fin == nil {
			return fmt.Errorf("connection lost mid-stream: %v", r.cli.Err())
		}
		if fin.Err != "" {
			return fmt.Errorf("session %s %s: %s", h.ID, fin.State, fin.Err)
		}
		fmt.Fprintf(out, "-- %d element(s), virtual makespan %v, session %s %s\n",
			n, fin.Makespan, h.ID, fin.State)
		if r.payload > 0 && fin.Makespan > 0 {
			mbps := float64(r.payload) * 8 / fin.Makespan.Seconds() / 1e6
			fmt.Fprintf(out, "-- bandwidth %.1f Mbps over %d payload bytes\n", mbps, r.payload)
		}
		return nil
	}
}

func (r *remoteExec) Tables() ([]tableDesc, error) {
	tabs, err := r.cli.Tables()
	if err != nil {
		return nil, err
	}
	out := make([]tableDesc, len(tabs))
	for i, t := range tabs {
		var b strings.Builder
		b.WriteByte('(')
		for j, c := range t.Columns {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c[0] + " " + c[1])
		}
		b.WriteByte(')')
		out[i] = tableDesc{Name: t.Name, Doc: t.Doc, Schema: b.String()}
	}
	return out, nil
}

func (r *remoteExec) Rows(table, pattern string) ([]string, [][]any, error) {
	tabs, err := r.cli.Tables()
	if err != nil {
		return nil, nil, err
	}
	var cols []string
	for _, t := range tabs {
		if t.Name == table {
			for _, c := range t.Columns {
				cols = append(cols, c[0])
			}
		}
	}
	rows, err := r.cli.Snap(table, pattern)
	return cols, rows, err
}

func (r *remoteExec) Cancel(id string) error { return r.cli.CancelID(id) }

// meta executes a backslash shell command.
func (s *shell) meta(cmd string) error {
	fields := strings.Fields(strings.TrimPrefix(cmd, `\`))
	if len(fields) == 0 {
		return fmt.Errorf(`empty meta command (try \stats)`)
	}
	switch fields[0] {
	case "stats":
		prefix := ""
		if len(fields) > 1 {
			prefix = fields[1]
		}
		s.printStats(prefix)
		return nil
	case "ps":
		return s.printTable("sys_sessions", "")
	case "d":
		if len(fields) > 1 {
			return s.describeTable(fields[1])
		}
		tabs, err := s.exec.Tables()
		if err != nil {
			return err
		}
		for _, tab := range tabs {
			name := tab.Name + "()"
			if tab.TakesPattern {
				name = tab.Name + "([like])"
			}
			fmt.Fprintf(s.out, "%-22s %s\n", name, tab.Doc)
		}
		return nil
	case "cancel":
		if len(fields) != 2 {
			return fmt.Errorf(`\cancel takes one query id (try \ps)`)
		}
		if err := s.exec.Cancel(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "-- cancelled %s\n", fields[1])
		return nil
	default:
		return fmt.Errorf(`unknown meta command \%s (try \stats, \ps, \d, \cancel)`, fields[0])
	}
}

// describeTable prints one system table's schema from the live registry.
func (s *shell) describeTable(name string) error {
	name = strings.TrimSuffix(strings.ToLower(name), "()")
	tabs, err := s.exec.Tables()
	if err != nil {
		return err
	}
	for _, tab := range tabs {
		if tab.Name != name {
			continue
		}
		fmt.Fprintf(s.out, "%s %s\n", tab.Name, tab.Schema)
		fmt.Fprintf(s.out, "-- %s\n", tab.Doc)
		if tab.TakesPattern {
			fmt.Fprintf(s.out, "-- takes an optional SQL-LIKE pattern ('%%' anywhere; no '%%' = prefix)\n")
		}
		return nil
	}
	return fmt.Errorf(`no system table %q (try \d)`, name)
}

// printTable renders a system catalog snapshot as name=value rows — the
// backing of \ps (and the same rows ps() and sys_sessions() stream in
// SCSQL).
func (s *shell) printTable(table, pattern string) error {
	cols, rows, err := s.exec.Rows(table, pattern)
	if err != nil {
		return err
	}
	for _, row := range rows {
		parts := make([]string, 0, len(row))
		for i, v := range row {
			if vs, ok := v.(string); ok {
				v = strings.Join(strings.Fields(vs), " ")
			}
			parts = append(parts, fmt.Sprintf("%s=%v", cols[i], v))
		}
		fmt.Fprintln(s.out, strings.Join(parts, " "))
	}
	if len(rows) == 0 {
		fmt.Fprintf(s.out, "-- %s is empty\n", table)
	}
	return nil
}

// printStats dumps the telemetry registry, sorted by metric name. The
// ordinary path renders sys_metrics catalog rows (the pattern is SQL-LIKE:
// '%' anywhere, a plain string is a prefix). A prefix of the form @q3 (or
// a bare session id like q3) instead scopes the dump to that query's
// metrics via the snapshot API — the per-session view of a multi-tenant
// engine, available in-process only.
func (s *shell) printStats(pattern string) {
	if qid := queryScope(pattern); qid != "" {
		if s.eng == nil {
			fmt.Fprintln(s.out, "error: session-scoped \\stats needs an in-process engine (not -connect)")
			return
		}
		s.printQueryStats(qid)
		return
	}
	_, rows, err := s.exec.Rows("sys_metrics", pattern)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	// sys_metrics columns: kind, name, value, count, sum_ns, min_ns, max_ns.
	for _, row := range rows {
		kind, name := row[0].(string), row[1]
		if kind == "histogram" {
			count, sum := row[3].(int64), row[4].(int64)
			mean := time.Duration(0)
			if count > 0 {
				mean = time.Duration(sum / count)
			}
			fmt.Fprintf(s.out, "histogram  %-44s count=%d mean=%v min=%v max=%v\n",
				name, count, mean, time.Duration(row[5].(int64)), time.Duration(row[6].(int64)))
			continue
		}
		fmt.Fprintf(s.out, "%-10s %-44s %v\n", kind, name, row[2])
	}
	if len(rows) == 0 {
		fmt.Fprintf(s.out, "-- no metrics recorded")
		if pattern != "" {
			fmt.Fprintf(s.out, " matching %q", pattern)
		}
		fmt.Fprintln(s.out)
	}
}

// printQueryStats renders the @qid-scoped snapshot view.
func (s *shell) printQueryStats(qid string) {
	snap := s.eng.MetricsSnapshot().ForQuery(qid)
	shown := 0
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(s.out, "counter    %-44s %d\n", name, snap.Counters[name])
		shown++
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(s.out, "gauge      %-44s %d\n", name, snap.Gauges[name])
		shown++
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		fmt.Fprintf(s.out, "histogram  %-44s count=%d mean=%v min=%v max=%v\n",
			name, h.Count,
			time.Duration(h.MeanNs()), time.Duration(h.MinNs), time.Duration(h.MaxNs))
		shown++
	}
	if shown == 0 {
		fmt.Fprintf(s.out, "-- no metrics recorded for session %s\n", qid)
	}
}

// queryScope recognizes a \stats argument naming a query session: "@q3"
// explicitly, or a bare id of the engine's "q<n>" form.
func queryScope(prefix string) string {
	if strings.HasPrefix(prefix, "@") {
		return prefix[1:]
	}
	if qidRe.MatchString(prefix) {
		return prefix
	}
	return ""
}

var qidRe = regexp.MustCompile(`^q\d+$`)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatValue(v any) string {
	if arr, ok := v.([]float64); ok && len(arr) > 8 {
		return fmt.Sprintf("[]float64(len=%d, head=%v...)", len(arr), arr[:4])
	}
	return fmt.Sprintf("%v", v)
}

// splitStatements splits on ';' while respecting string literals.
func splitStatements(src string) []string {
	var (
		out     []string
		current strings.Builder
		quote   rune
	)
	for _, r := range src {
		switch {
		case quote != 0:
			current.WriteRune(r)
			if r == quote {
				quote = 0
			}
		case r == '\'' || r == '"':
			quote = r
			current.WriteRune(r)
		case r == ';':
			out = append(out, current.String())
			current.Reset()
		default:
			current.WriteRune(r)
		}
	}
	if strings.TrimSpace(current.String()) != "" {
		out = append(out, current.String())
	}
	return out
}
