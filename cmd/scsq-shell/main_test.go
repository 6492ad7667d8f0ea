package main

import (
	"reflect"
	"strings"
	"testing"

	"scsq"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

func TestSplitStatements(t *testing.T) {
	tests := []struct {
		give string
		want []string
	}{
		{"a; b;", []string{"a", " b"}},
		{"only one", []string{"only one"}},
		{"quoted ';' stays; next", []string{"quoted ';' stays", " next"}},
		{`double ";" too; x`, []string{`double ";" too`, " x"}},
		{";;", nil},
		{"", nil},
	}
	for _, tt := range tests {
		got := splitStatements(tt.give)
		// Filter like the callers do: empty statements are skipped by
		// execute, so drop all-whitespace entries for comparison.
		var trimmed []string
		for _, s := range got {
			if strings.TrimSpace(s) != "" {
				trimmed = append(trimmed, s)
			}
		}
		if !reflect.DeepEqual(trimmed, tt.want) {
			t.Errorf("splitStatements(%q) = %q, want %q", tt.give, trimmed, tt.want)
		}
	}
}

func TestShellExecute(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 1000, 2, false, &sb)
	err = sh.runSource(`
create function f(integer n) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');
select f(2);`)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"defined function f", "1", "2", "makespan", "bandwidth", "busiest"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellREPLRecoversFromErrors(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 0, 0, false, &sb)
	input := "select nonsense(;\nselect extract(a) from sp a where a=sp(iota(1,1), 'be');\n"
	if err := sh.repl(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "error:") {
		t.Errorf("first statement should report an error:\n%s", out)
	}
	if !strings.Contains(out, "1 element(s)") {
		t.Errorf("second statement should still run:\n%s", out)
	}

	// A build that fails half-way (b asks for the node a took) holds nothing:
	// the next statement gets that node.
	sb.Reset()
	input = "select extract(b) from sp a, sp b where b=sp(extract(a),'bg',0) and a=sp(iota(1,3),'bg',0);\n" +
		"select extract(a) from sp a where a=sp(iota(1,3),'bg',0);\n"
	if err := sh.repl(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Count(out, "error:") != 1 || !strings.Contains(out, "3 element(s)") {
		t.Errorf("want the build failure, then the valid statement on the same node:\n%s", out)
	}

	// What a statement reads does not depend on how the one before it ended:
	// Figure 5 prints the same makespan before and after a statement that
	// fails while it runs (fft over three samples).
	sb.Reset()
	fig5 := "select extract(b) from sp a, sp b where b=sp(streamof(count(extract(a))),'bg',0) and a=sp(gen_array(30000,10),'bg',1);\n"
	input = fig5 + "select extract(b) from sp a, sp b where b=sp(fft(extract(a)),'bg',0) and a=sp(gen_array(24,2),'bg',1);\n" + fig5
	if err := sh.repl(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if _, span, ok := strings.Cut(line, "virtual makespan "); ok {
			spans = append(spans, span)
		}
	}
	if !strings.Contains(sb.String(), "not a power of two") || len(spans) != 2 || spans[0] != spans[1] {
		t.Errorf("want one run-time failure between two equal makespans, got %v:\n%s", spans, sb.String())
	}
}

func TestFormatValue(t *testing.T) {
	long := make([]float64, 100)
	if got := formatValue(long); !strings.Contains(got, "len=100") {
		t.Errorf("long arrays should be summarized, got %q", got)
	}
	if got := formatValue(int64(7)); got != "7" {
		t.Errorf("formatValue(7) = %q", got)
	}
	if got := formatValue([]float64{1, 2}); !strings.Contains(got, "1") {
		t.Errorf("short arrays print in full, got %q", got)
	}
}

func TestShellStatsMeta(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 0, 0, false, &sb)

	// \stats on a fresh engine: nothing recorded yet.
	if err := sh.execute(`\stats link.`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no metrics recorded") {
		t.Fatalf("fresh \\stats output:\n%s", sb.String())
	}
	sb.Reset()

	// link.* keys name no query, so they survive the per-statement Reset
	// (which folds the statement's own per-RP keys into "…retired"): stats
	// issued after a query report that query's traffic.
	err = sh.runSource(`
select extract(a) from sp a where a=sp(iota(1,3), 'be');
\stats link.`)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"counter", "link.bytes.tcp:", "histogram", "link.deliver_vt.tcp"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\stats output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()

	// The prefix filter narrows the dump; unknown meta commands fail.
	if err := sh.execute(`\stats chaos.nothing-here`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no metrics recorded") {
		t.Fatalf("filtered \\stats output:\n%s", sb.String())
	}
	if err := sh.execute(`\bogus`); err == nil {
		t.Fatal("unknown meta command did not fail")
	}
}

func TestShellPSAndQueryScopedStats(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 0, 0, false, &sb)

	ses, err := eng.Submit(`select extract(a) from sp a where a=sp(iota(1,3), 'be');`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}

	if err := sh.execute(`\ps`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ses.ID()) || !strings.Contains(sb.String(), "done") {
		t.Fatalf("\\ps output missing session %s:\n%s", ses.ID(), sb.String())
	}
	sb.Reset()

	// \stats <qid> scopes the dump to the session's own metrics.
	if err := sh.execute(`\stats ` + ses.ID()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, ses.ID()+"/") {
		t.Fatalf("query-scoped \\stats shows no %s metrics:\n%s", ses.ID(), out)
	}
	if strings.Contains(out, "sched.submitted") {
		t.Fatalf("query-scoped \\stats leaked engine-wide metrics:\n%s", out)
	}
	sb.Reset()

	if err := sh.execute(`\cancel nope`); err == nil {
		t.Fatal("\\cancel of unknown session succeeded")
	}
}

func TestShellDescribeMeta(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 0, 0, false, &sb)

	// \d lists every catalog table from the live registry.
	if err := sh.execute(`\d`); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sys_sessions()", "sys_nodes()", "sys_links()", "sys_rps()", "sys_metrics([like])"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("\\d output missing %q:\n%s", want, sb.String())
		}
	}
	sb.Reset()

	// \d <table> prints one schema, spelled exactly as the registry does.
	if err := sh.execute(`\d sys_nodes`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if tab, _ := eng.SystemCatalog().Lookup("sys_nodes"); !strings.Contains(out, "sys_nodes "+tab.Schema.String()) {
		t.Errorf("\\d sys_nodes does not print the registry schema:\n%s", out)
	}
	if err := sh.execute(`\d sys_bogus`); err == nil {
		t.Fatal("\\d of unknown table succeeded")
	}
}

func TestShellRemoteMode(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{})
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var sb strings.Builder
	sh := &shell{exec: &remoteExec{cli: cli, payload: 1000}, out: &sb}

	// Statements run as remote sessions with incremental results.
	err = sh.runSource(`select extract(a) from sp a where a=sp(iota(1,3), 'be');`)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"1", "2", "3", "3 element(s)", "makespan", "bandwidth", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("remote execute output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()

	// Meta commands render from the server's catalog — including the
	// serving layer's own sys_conns table.
	if err := sh.execute(`\d`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sys_conns()") {
		t.Errorf("\\d over the wire missing sys_conns:\n%s", sb.String())
	}
	sb.Reset()
	if err := sh.execute(`\ps`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "done") {
		t.Errorf("remote \\ps missing the finished session:\n%s", sb.String())
	}
	sb.Reset()

	// One read path: every meta command is a statement over the catalog, so
	// the in-process shell and the remote one print the same lines for the
	// same engine — except that a remote reader is itself a session (a local
	// one runs on the synchronous evaluator), so \ps over the wire also lists
	// its own sys_sessions() read, running, as SHOW PROCESSLIST would. No
	// earlier read is there: a reader leaves the session table as it ends.
	var lb strings.Builder
	local := newLocalShell(eng, 0, 0, false, &lb)
	lines := func(out string) []string {
		var kept []string
		for _, l := range strings.Split(out, "\n") {
			if !strings.Contains(l, "state=running priority=0 nodes=0 statement=select sys_sessions();") {
				kept = append(kept, l)
			}
		}
		return kept
	}
	for _, cmd := range []string{`\d`, `\d sys_metrics`, `\ps`, `\stats link.`, `\stats @q1`, `\stats q1`} {
		lb.Reset()
		sb.Reset()
		if err := local.execute(cmd); err != nil {
			t.Fatalf("local %s: %v", cmd, err)
		}
		if err := sh.execute(cmd); err != nil {
			t.Fatalf("remote %s: %v", cmd, err)
		}
		if lb.Len() == 0 || strings.Contains(lb.String(), "no metrics recorded") {
			t.Errorf("local %s printed nothing to compare:\n%s", cmd, lb.String())
		}
		if l, r := lines(lb.String()), lines(sb.String()); !reflect.DeepEqual(l, r) {
			t.Errorf("%s differs between modes:\n-- in-process:\n%s\n-- over -connect:\n%s", cmd, lb.String(), sb.String())
		}
	}
	sb.Reset()
	if err := sh.execute(`\ps`); err != nil || !strings.Contains(sb.String(), "state=running priority=0 nodes=0 statement=select sys_sessions();") {
		t.Errorf("remote \\ps does not list its own read as a running session (err %v):\n%s", err, sb.String())
	}
	if n := strings.Count(sb.String(), "statement=select sys_"); n != 1 {
		t.Errorf("remote \\ps lists %d catalog reads, want its own only:\n%s", n, sb.String())
	}
	for _, want := range []string{"sys_metrics([like])", "sys_resources()", "sys_tables()"} {
		if err := sh.execute(`\d`); err != nil || !strings.Contains(sb.String(), want) {
			t.Errorf("remote \\d misses %q (err %v):\n%s", want, err, sb.String())
		}
	}
	sb.Reset()

	// Errors surface with the remote session's terminal state.
	if err := sh.execute(`select extract(a) from sp a where a=sp(gen_array(8, 1), 'bg', 99)`); err == nil {
		t.Fatal("remote failing statement did not error")
	}
}

// TestShellReadsNumberNoQuery: the shell's own reads — the meta commands, and
// the -utilization and -explain reports inside a statement — are statements,
// but they leave nothing behind: the user's statements are q1, q2, ... whatever
// was read in between, and the engine can always be Reset.
func TestShellReadsNumberNoQuery(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sb strings.Builder
	sh := newLocalShell(eng, 0, 2, true, &sb)
	const stmt = `select extract(b) from sp a, sp b where b=sp(count(extract(a)), 'bg') and a=sp(iota(1,6), 'be')`
	for _, want := range []string{"q1/rp-be-1", "q2/rp-be-1", "q3/rp-be-1"} {
		sb.Reset()
		if err := sh.execute(stmt); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("statement did not run as %s:\n%s", want, sb.String())
		}
		for i := 0; i < 5; i++ {
			for _, cmd := range []string{`\ps`, `\d`, `\d sys_links`, `\stats link.`, `\stats @q1`} {
				if err := sh.execute(cmd); err != nil {
					t.Fatalf("%s: %v", cmd, err)
				}
			}
		}
	}
}
