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
// sessions with results streamed back incrementally. Engine-construction
// flags (-mpibuf, -single) and the per-statement -utilization and
// -explain reports apply only to the in-process mode.
//
// Every statement runs as a session of the scheduler, in process as over
// -connect, and prints its result elements, one summary line (element
// count, virtual makespan, session id and state) and — with -payload — the
// measured streaming bandwidth, the same in both modes.
//
// Backslash meta commands inspect the engine between statements. Each is a
// statement over the system catalog (the same sys_* tables SCSQL queries
// directly) that the shell issues and renders, identically in both modes:
//
//	\d [table]       select sys_tables();          catalog listing / one schema
//	\ps              select sys_sessions();        the scheduler's session table
//	\stats [pattern] select sys_metrics('pattern'); SQL-LIKE ('%' anywhere; a
//	                 plain string is a prefix), or a session id ("\stats q3",
//	                 "\stats @q3") for that query's own metrics
//	\cancel <qid>    cancels a session (over -connect: one of this connection's)
//
// and -utilization and -explain are `select sys_resources();` and
// `select sys_links();` after each statement. A reader is itself a session,
// so \ps lists its own `select sys_sessions();` as running — as SHOW
// PROCESSLIST lists itself. It is a session that leases no node: it skips
// the admission queue (and the server runs it while draining), so \ps
// answers when the system is congested, and as it ends it leaves the session
// table and hands its id back: reading numbers no query. In process, a
// statement run by the shell is retired by the Reset that follows it, which
// folds its per-RP metric keys into "…retired"; keys that name no query
// (link.*, sched.*) and totals by prefix survive, so \stats after a query
// reports that query's traffic.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"time"

	"scsq"
	"scsq/internal/catalog"
	"scsq/internal/server/client"
	"scsq/internal/server/wire"
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
// remote scsq-server. Everything the shell reads it reads by statement, so
// the REPL and the meta commands are mode-agnostic by construction.
type executor interface {
	// Execute runs one SCSQL statement and writes its results to out.
	Execute(stmt string, out io.Writer) error
	// query is the shell's own read: one catalog table, by the statement
	// `select <table>([arg]);`, as its column names and its rows lowered the
	// way the wire lowers them (a catalog tuple becomes its values) — so both
	// modes render from the same data. The engine is left as it is: no Reset
	// follows, and the read itself leaves nothing behind.
	query(table, arg string) (cols []string, rows [][]any, err error)
	// Cancel cancels a scheduler session by id.
	Cancel(id string) error
}

type shell struct {
	exec   executor
	banner string
	out    io.Writer
}

// newLocalShell wires a shell around an in-process engine.
func newLocalShell(eng *scsq.Engine, payload int64, util int, explain bool, out io.Writer) *shell {
	return &shell{
		exec: &localExec{eng: eng, payload: payload, util: util, explain: explain},
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

// localExec runs statements as sessions of an embedded engine, one at a
// time with a reset in between.
type localExec struct {
	eng     *scsq.Engine
	payload int64
	util    int
	explain bool
}

func (l *localExec) Execute(stmt string, out io.Writer) (err error) {
	// Every exit resets: what a statement reads must not depend on how the
	// one before it ended.
	defer func() {
		if rerr := l.eng.Reset(); rerr != nil && err == nil {
			err = fmt.Errorf("reset after statement: %w", rerr)
		}
	}()
	sess, err := l.eng.Submit(stmt + ";")
	if err != nil {
		return err
	}
	els, err := sess.Wait()
	for _, el := range els {
		fmt.Fprintf(out, "%v\n", formatValue(el.Value))
	}
	if err != nil {
		return fmt.Errorf("session %s %s: %w", sess.ID(), sess.State(), err)
	}
	printSummary(out, len(els), sess.Makespan(), sess.ID(), sess.State().String(), l.payload)
	if l.util > 0 {
		if err := printUtilization(out, l, sess.Makespan(), l.util); err != nil {
			return err
		}
	}
	if l.explain {
		return printTopology(out, l)
	}
	return nil
}

func (l *localExec) query(table, arg string) ([]string, [][]any, error) {
	sess, err := l.eng.Submit(selectStmt(table, arg))
	if err != nil {
		return nil, nil, err
	}
	els, err := sess.Wait()
	if err != nil {
		return nil, nil, err
	}
	var cols []string
	rows := make([][]any, len(els))
	for i, el := range els {
		tup, ok := el.Value.(catalog.Tuple)
		if !ok {
			return nil, nil, fmt.Errorf("%s() row %d is %T, want a tuple", table, i, el.Value)
		}
		cols, rows[i] = tup.Schema.Names(), wire.WireValue(tup).([]any)
	}
	return cols, rows, nil
}

func (l *localExec) Cancel(id string) error { return l.eng.CancelSession(id) }

// remoteExec runs statements as sessions of a remote scsq-server; results
// stream back incrementally and print as they arrive.
type remoteExec struct {
	cli     *client.Client
	payload int64
	// cols caches the column names of the tables read so far: rows cross the
	// wire as bare values, so the names come from one sys_tables read.
	cols map[string][]string
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
		printSummary(out, n, fin.Makespan, h.ID, fin.State, r.payload)
		return nil
	}
}

func (r *remoteExec) query(table, arg string) ([]string, [][]any, error) {
	rows, err := r.read(table, arg)
	if err != nil {
		return nil, nil, err
	}
	if _, known := r.cols[table]; !known {
		tabs := rows
		if table != "sys_tables" {
			if tabs, err = r.read("sys_tables", ""); err != nil {
				return nil, nil, err
			}
		}
		r.cols = make(map[string][]string, len(tabs))
		for _, t := range tabs { // name, doc, columns, takes_pattern
			name, _ := t[0].(string)
			columns, _ := t[2].(string)
			sch, err := catalog.ParseSchema(columns)
			if err != nil {
				return nil, nil, err
			}
			r.cols[name] = sch.Names()
		}
	}
	return r.cols[table], rows, nil
}

// read runs one catalog read as a session and returns its rows.
func (r *remoteExec) read(table, arg string) ([][]any, error) {
	h, err := r.cli.Submit(selectStmt(table, arg), 0)
	if err != nil {
		return nil, err
	}
	recs, fin, err := h.Wait()
	if err != nil {
		return nil, err
	}
	if fin.Err != "" {
		return nil, fmt.Errorf("session %s %s: %s", h.ID, fin.State, fin.Err)
	}
	rows := make([][]any, len(recs))
	for i, rec := range recs {
		row, ok := rec.Value.([]any)
		if !ok {
			return nil, fmt.Errorf("%s() row %d is %T, want a tuple", table, i, rec.Value)
		}
		rows[i] = row
	}
	return rows, nil
}

func (r *remoteExec) Cancel(id string) error { return r.cli.CancelID(id) }

// printSummary writes the line that ends a statement's output in both
// modes — its element count, virtual makespan and session — and, given a
// payload, the bandwidth the makespan measured.
func printSummary(out io.Writer, n int, makespan time.Duration, id, state string, payload int64) {
	fmt.Fprintf(out, "-- %d element(s), virtual makespan %v, session %s %s\n", n, makespan, id, state)
	if payload > 0 && makespan > 0 {
		mbps := float64(payload) * 8 / makespan.Seconds() / 1e6
		fmt.Fprintf(out, "-- bandwidth %.1f Mbps over %d payload bytes\n", mbps, payload)
	}
}

// selectStmt spells the read of one catalog table, quoting its argument.
func selectStmt(table, arg string) string {
	if arg != "" {
		q := "'"
		if strings.Contains(arg, q) {
			q = `"`
		}
		arg = q + arg + q
	}
	return "select " + table + "(" + arg + ");"
}

// describe renders the catalog's own listing, sys_tables: every table on one
// line each, or the one named with its schema as the registry spells it.
func (s *shell) describe(name string) error {
	_, rows, err := s.exec.query("sys_tables", "")
	if err != nil {
		return err
	}
	found := false
	for _, r := range rows { // name, doc, columns, takes_pattern
		takesPattern := r[3] == int64(1)
		switch {
		case name == "" && takesPattern:
			fmt.Fprintf(s.out, "%-22s %s\n", fmt.Sprint(r[0], "([like])"), r[1])
		case name == "":
			fmt.Fprintf(s.out, "%-22s %s\n", fmt.Sprint(r[0], "()"), r[1])
		case name == r[0]:
			fmt.Fprintf(s.out, "%s %s\n-- %s\n", r[0], r[2], r[1])
			if takesPattern {
				fmt.Fprintf(s.out, "-- takes an optional SQL-LIKE pattern ('%%' anywhere; no '%%' = prefix)\n")
			}
		default:
			continue
		}
		found = true
	}
	if !found {
		return fmt.Errorf(`no system table %q (try \d)`, name)
	}
	return nil
}

// meta executes a backslash shell command.
func (s *shell) meta(cmd string) error {
	fields := strings.Fields(strings.TrimPrefix(cmd, `\`))
	if len(fields) == 0 {
		return fmt.Errorf(`empty meta command (try \stats)`)
	}
	arg := ""
	if len(fields) > 1 {
		arg = fields[1]
	}
	switch fields[0] {
	case "stats":
		return s.printStats(arg)
	case "ps":
		return s.printTable("sys_sessions")
	case "d":
		return s.describe(strings.TrimSuffix(strings.ToLower(arg), "()"))
	case "cancel":
		if len(fields) != 2 {
			return fmt.Errorf(`\cancel takes one query id (try \ps)`)
		}
		if err := s.exec.Cancel(arg); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "-- cancelled %s\n", arg)
		return nil
	default:
		return fmt.Errorf(`unknown meta command \%s (try \stats, \ps, \d, \cancel)`, fields[0])
	}
}

// printTable renders one catalog table as name=value rows, the names being
// the table's own columns — the backing of \ps.
func (s *shell) printTable(table string) error {
	cols, rows, err := s.exec.query(table, "")
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("%s() row has %d values, the table %d columns", table, len(row), len(cols))
		}
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

// printStats renders sys_metrics rows. The pattern is the table's own:
// SQL-LIKE ('%' anywhere, a plain string is a prefix) or '@q3' for the
// metrics of one query; a bare session id ("q3") is shorthand for the latter.
func (s *shell) printStats(pattern string) error {
	if qidRe.MatchString(pattern) {
		pattern = "@" + pattern
	}
	_, rows, err := s.exec.query("sys_metrics", pattern)
	if err != nil {
		return err
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
	return nil
}

// qidRe recognizes a bare session id of the engine's "q<n>" form.
var qidRe = regexp.MustCompile(`^q\d+$`)

// printUtilization reports the top busiest simulated devices from
// sys_resources — each device's busy time summed over its owners — with
// their share of the statement's makespan.
func printUtilization(out io.Writer, ex executor, makespan time.Duration, top int) error {
	_, rows, err := ex.query("sys_resources", "")
	if err != nil {
		return err
	}
	busy := make(map[string]int64)
	var names []string
	for _, r := range rows { // resource, owner, busy_ns
		name := r[0].(string)
		if _, seen := busy[name]; !seen {
			names = append(names, name)
		}
		busy[name] += r[2].(int64)
	}
	slices.SortFunc(names, func(a, b string) int {
		return cmp.Or(cmp.Compare(busy[b], busy[a]), strings.Compare(a, b))
	})
	fmt.Fprintf(out, "-- busiest resources:\n")
	for _, name := range names[:min(top, len(names))] {
		share := 0.0
		if makespan > 0 {
			share = float64(busy[name]) / float64(makespan)
		}
		fmt.Fprintf(out, "--   %-12s %12v %6.1f%%\n", name, time.Duration(busy[name]), share*100)
	}
	return nil
}

// printTopology reports the wired producer→consumer edges from sys_links.
func printTopology(out io.Writer, ex executor) error {
	_, rows, err := ex.query("sys_links", "")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "-- communication topology:\n")
	for _, r := range rows { // carrier, query, producer, consumer, from_cluster, from_node, to_cluster, to_node, ...
		fmt.Fprintf(out, "--   %-12s (%s:%d) --%s--> %s (%s:%d)\n", r[2], r[4], r[5], r[0], r[3], r[6], r[7])
	}
	return nil
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
