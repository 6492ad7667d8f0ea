// Command scsq-shell evaluates SCSQL statements against a simulated LOFAR
// environment: interactively (a statement per ';'), from -e flags, or from
// files given as arguments.
//
//	scsq-shell -e "select extract(b) from sp a, sp b where ...;"
//	scsq-shell queries.scsql
//	scsq-shell                        # REPL on an in-process engine
//	scsq-shell -connect 10.0.0.7:9292 # REPL against a remote scsq-server
//
// The shell is a client of the SCSQL wire protocol in both modes: with
// -connect, of an scsq-server; without it, of a server it puts in front of
// an engine of its own and reaches over an in-process pipe, with no socket
// and no token. Only the engine-construction flags (-mpibuf, -single) are
// in-process only; the in-process engine is reset after every statement.
//
// Every statement runs as a session of the scheduler and prints its result
// elements as they stream back, one summary line (element count, virtual
// makespan, session id and state) and — with -payload — the measured
// streaming bandwidth. -utilization N and -explain then print the
// statement's own N busiest simulated resources (busy time, which may
// exceed the makespan) and its communication topology.
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
//	\cancel <qid>    cancels one of this connection's sessions
//
// and -utilization and -explain are `select sys_resources();` and
// `select sys_links();` after each statement, of which they print the
// statement's own rows. A reader is itself a session, so \ps lists its own
// `select sys_sessions();` as running — as SHOW PROCESSLIST lists itself.
// It is a session that leases no node: it skips the admission queue (and
// the server runs it while draining), so \ps answers when the system is
// congested, and as it ends it leaves the session table and hands its id
// back: reading numbers no query. In process, a
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
	"net"
	"os"
	"regexp"
	"slices"
	"strings"
	"time"

	"scsq"
	"scsq/internal/catalog"
	"scsq/internal/server"
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
	)
	flag.Parse()

	var (
		eng   *scsq.Engine
		cli   *client.Client
		where = "the in-process engine"
		err   error
	)
	if *connect != "" {
		if cli, err = client.Dial(*connect, client.Options{Token: *token}); err != nil {
			return err
		}
		where = *connect
	} else {
		opts := []scsq.Option{scsq.WithMPIBufferBytes(*mpiBuf)}
		if *single {
			opts = append(opts, scsq.WithSingleBuffering())
		}
		if eng, err = scsq.New(opts...); err != nil {
			return err
		}
		defer eng.Close()
	}
	sh, err := newShell(eng, cli, *payload, *util, *explain, os.Stdout)
	if err != nil {
		return err
	}
	defer sh.close()
	sh.banner = fmt.Sprintf("connected to %s (%s) as %s", where, sh.cli.ServerName, sh.cli.ConnID)

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

// shell runs statements and meta commands through one client of a server.
type shell struct {
	cli *client.Client
	// eng and srv are the shell's own engine and the server in front of it;
	// both nil over -connect.
	eng     *scsq.Engine
	srv     *server.Server
	banner  string
	out     io.Writer
	payload int64
	util    int
	explain bool
	cols    map[string][]string // column names by table, filled by columns
}

// newShell returns a shell that runs every statement, and every read of its
// own, as a session of a server through one client. Exactly one of eng and
// cli is non-nil: cli is connected to an scsq-server; eng is the shell's own
// engine, which it puts behind a server of its own and reaches over an
// in-process pipe — no socket, no token, nothing outside the process can
// reach it — and resets after every statement.
func newShell(eng *scsq.Engine, cli *client.Client, payload int64, util int, explain bool, out io.Writer) (*shell, error) {
	sh := &shell{cli: cli, out: out, payload: payload, util: util, explain: explain}
	if cli == nil {
		sh.eng, sh.srv = eng, server.New(eng, server.Config{})
		cliEnd, srvEnd := net.Pipe()
		sh.srv.Serve(srvEnd)
		var err error
		if sh.cli, err = client.New(cliEnd, client.Options{}); err != nil {
			sh.srv.Close()
			return nil, err
		}
	}
	return sh, nil
}

// close ends the client and, in process, the shell's server.
func (s *shell) close() {
	s.cli.Close()
	if s.srv != nil {
		s.srv.Close()
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

// execute runs one statement or meta command and prints its outcome.
func (s *shell) execute(stmt string) (err error) {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" {
		return nil
	}
	if strings.HasPrefix(stmt, `\`) {
		return s.meta(stmt)
	}
	if s.eng != nil {
		// Every exit resets the shell's own engine: what a statement reads
		// must not depend on how the one before it ended.
		defer func() {
			if rerr := s.eng.Reset(); rerr != nil && err == nil {
				err = fmt.Errorf("reset after statement: %w", rerr)
			}
		}()
	}
	h, err := s.cli.Submit(stmt+";", 0)
	if err != nil {
		return err
	}
	n := 0
	row, ok, fin := h.Recv()
	for ; ok; row, ok, fin = h.Recv() {
		fmt.Fprintf(s.out, "%v\n", formatValue(row.Value))
		n++
	}
	switch {
	case fin == nil:
		return fmt.Errorf("connection lost mid-stream: %v", s.cli.Err())
	case fin.Err != "":
		return fmt.Errorf("session %s %s: %s", h.ID, fin.State, fin.Err)
	}
	fmt.Fprintf(s.out, "-- %d element(s), virtual makespan %v, session %s %s\n", n, fin.Makespan, h.ID, fin.State)
	if s.payload > 0 && fin.Makespan > 0 {
		mbps := float64(s.payload) * 8 / fin.Makespan.Seconds() / 1e6
		fmt.Fprintf(s.out, "-- bandwidth %.1f Mbps over %d payload bytes\n", mbps, s.payload)
	}
	if s.util > 0 {
		if err := s.printUtilization(h.ID); err != nil {
			return err
		}
	}
	if s.explain {
		return s.printTopology(h.ID)
	}
	return nil
}

// columns returns the column names of a catalog table. Rows cross the wire
// as bare values, so the names come from a sys_tables read, cached until a
// table it did not list is asked for.
func (s *shell) columns(table string) ([]string, error) {
	if _, known := s.cols[table]; !known {
		tabs, err := s.read("sys_tables", "")
		if err != nil {
			return nil, err
		}
		s.cols = make(map[string][]string, len(tabs))
		for _, t := range tabs { // name, doc, columns, takes_pattern
			name, _ := t[0].(string)
			columns, _ := t[2].(string)
			sch, err := catalog.ParseSchema(columns)
			if err != nil {
				return nil, err
			}
			s.cols[name] = sch.Names()
		}
	}
	return s.cols[table], nil
}

// read is the shell's own read of one catalog table, by the statement
// `select <table>([arg]);`, as a session: it returns the table's rows,
// leaves nothing behind, and no Reset follows it.
func (s *shell) read(table, arg string) ([][]any, error) {
	h, err := s.cli.Submit(selectStmt(table, arg), 0)
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
	rows, err := s.read("sys_tables", "")
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
		if err := s.cli.CancelID(arg); err != nil {
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
	rows, err := s.read(table, "")
	if err != nil {
		return err
	}
	cols, err := s.columns(table)
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
	rows, err := s.read("sys_metrics", pattern)
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

// printUtilization reports the top busiest simulated devices of session id:
// its own sys_resources rows, one per device it was charged on. Busy time
// is no share of the makespan: a device may be busy past the last element
// (the NIC carries the end-of-stream frame after it).
func (s *shell) printUtilization(id string) error {
	rows, err := s.read("sys_resources", "")
	if err != nil {
		return err
	}
	rows = slices.DeleteFunc(rows, func(r []any) bool { return r[1] != id }) // resource, owner, busy_ns
	slices.SortFunc(rows, func(a, b []any) int {
		return cmp.Or(cmp.Compare(b[2].(int64), a[2].(int64)), strings.Compare(a[0].(string), b[0].(string)))
	})
	fmt.Fprintf(s.out, "-- busiest resources:\n")
	for _, r := range rows[:min(s.util, len(rows))] {
		fmt.Fprintf(s.out, "--   %-12s %12v\n", r[0], time.Duration(r[2].(int64)))
	}
	return nil
}

// printTopology reports session id's wired producer→consumer edges from
// sys_links.
func (s *shell) printTopology(id string) error {
	rows, err := s.read("sys_links", "")
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "-- communication topology:\n")
	for _, r := range rows { // carrier, query, producer, consumer, from_cluster, from_node, to_cluster, to_node, ...
		if r[1] == id {
			fmt.Fprintf(s.out, "--   %-12s (%s:%d) --%s--> %s (%s:%d)\n", r[2], r[4], r[5], r[0], r[3], r[6], r[7])
		}
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
