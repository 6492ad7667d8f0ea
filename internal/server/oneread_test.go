package server_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scsq"
	"scsq/internal/metrics"
	"scsq/internal/scsql"
	"scsq/internal/server"
	"scsq/internal/server/client"
	"scsq/internal/server/wire"
)

// A statement has three doors — Engine.Exec, Engine.Submit and a wire
// MsgSubmit — and the helpers below read through one each, lowering every
// row to the value list a remote peer receives (wire.WireValue).

func lowerRows(t *testing.T, stmt string, vals []any) [][]any {
	t.Helper()
	rows := make([][]any, len(vals))
	for i, v := range vals {
		row, ok := wire.WireValue(v).([]any)
		if !ok {
			t.Fatalf("%s: row %d is %T, want a tuple", stmt, i, v)
		}
		rows[i] = row
	}
	return rows
}

func elementRows(t *testing.T, stmt string, els []scsq.Element, err error) [][]any {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	vals := make([]any, len(els))
	for i, el := range els {
		vals[i] = el.Value
	}
	return lowerRows(t, stmt, vals)
}

// localRows reads through Engine.Exec: the synchronous evaluator, no session.
func localRows(t *testing.T, eng *scsq.Engine, stmt string) [][]any {
	t.Helper()
	st, err := eng.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	els, err := st.Drain()
	return elementRows(t, stmt, els, err)
}

// sessionRows reads through Engine.Submit: a scheduler session.
func sessionRows(t *testing.T, eng *scsq.Engine, stmt string) [][]any {
	t.Helper()
	ses, err := eng.Submit(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	els, err := ses.Wait()
	return elementRows(t, stmt, els, err)
}

// remoteRows reads through the wire: a session of a loopback client.
func remoteRows(t *testing.T, cli *client.Client, stmt string) [][]any {
	t.Helper()
	h, err := cli.Submit(stmt, 0)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	rows, fin, err := h.Wait()
	if err != nil || fin.Err != "" {
		t.Fatalf("%s: err %v, done %+v", stmt, err, fin)
	}
	vals := make([]any, len(rows))
	for i, r := range rows {
		vals[i] = r.Value
	}
	return lowerRows(t, stmt, vals)
}

// TestDialedConnectionReadsOpen: a connection is open before its Accepted
// frame is queued, so the sys_conns row of a client whose Dial returned
// reads open at once, through any door.
func TestDialedConnectionReadsOpen(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{})
	for range 10 {
		cli, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		state := "no row"
		for _, row := range localRows(t, eng, `select sys_conns();`) {
			if row[0] == cli.ConnID {
				state = row[2].(string)
			}
		}
		cli.Close()
		if state != "open" {
			t.Fatalf("right after Dial, sys_conns reads %s's connection %s, want open", cli.ConnID, state)
		}
	}
}

// TestOneReadPath: every fact is a sys_* table and every reader a statement,
// so the three doors of a statement must agree on every table the catalog
// lists — and the catalog must list itself.
func TestOneReadPath(t *testing.T) {
	// A 64 KiB frame cap on both peers: the last case below reads a table
	// several frames large, which one reply frame could not have carried.
	const maxFrame = 64 << 10
	eng, _, addr := newServer(t, server.Config{MaxFrame: maxFrame},
		scsq.WithPlacementPlanner(scsq.PlaceAggregateThroughput))
	cli, err := client.Dial(addr, client.Options{MaxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	idle, err := client.Dial(addr, client.Options{}) // a sys_conns row no reader moves
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Its writer counts the Accepted frame once the write returns, which may
	// be after Dial has returned: no door reads before its row shows it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		accepted := false
		for _, row := range localRows(t, eng, `select sys_conns();`) {
			accepted = accepted || row[0] == idle.ConnID && row[2] == "open" && row[7] == int64(1)
		}
		if accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the idle connection %s never counted its Accepted frame", idle.ConnID)
		}
	}

	// Something to read: a finished Figure 5 session (edges, metric keys,
	// busy time, a placement decision).
	data, err := eng.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.Wait(); err != nil {
		t.Fatal(err)
	}

	// sys_tables lists itself and is exactly the registry.
	tables := localRows(t, eng, `select sys_tables();`)
	reg := eng.SystemCatalog().Tables()
	if len(tables) != len(reg) {
		t.Fatalf("sys_tables() has %d rows, the registry %d tables", len(tables), len(reg))
	}
	listsItself := false
	for i, tab := range reg {
		takes := int64(0)
		if tab.TakesPattern {
			takes = 1
		}
		want := []any{tab.Name, tab.Doc, tab.Schema.String(), takes}
		if !reflect.DeepEqual(tables[i], want) {
			t.Errorf("sys_tables() row %d = %v, registry says %v", i, tables[i], want)
		}
		listsItself = listsItself || tab.Name == "sys_tables"
	}
	if !listsItself {
		t.Error("sys_tables() does not list itself")
	}

	// A reader is a session (and, over the wire, traffic on a connection):
	// reading moves exactly the rows that describe the reading, and those
	// are excluded by what they are, never by position.
	readerMoved := func(table, stmt string, row []any) bool {
		switch table {
		case "sys_sessions": // the readers' own sessions
			return row[4] == stmt
		case "sys_conns": // the reading connection's counters
			return row[0] == cli.ConnID
		case "sys_metrics": // scheduler, server and wall-clock (rt.) counters
			name := row[1].(string)
			return strings.HasPrefix(name, "sched.") || strings.HasPrefix(name, "server.") ||
				strings.HasPrefix(name, metrics.RTPrefix)
		}
		return false
	}
	for i, tab := range reg {
		stmt := "select " + tab.Name + "();"
		doors := map[string][][]any{
			"Exec":   localRows(t, eng, stmt),
			"Submit": sessionRows(t, eng, stmt),
			"wire":   remoteRows(t, cli, stmt),
		}
		for door, rows := range doors {
			kept := rows[:0]
			for _, row := range rows {
				if len(row) != len(tab.Schema) {
					t.Fatalf("%s via %s: row %v has %d values, %s has %d columns",
						stmt, door, row, len(row), tables[i][2], len(tab.Schema))
				}
				if !readerMoved(tab.Name, stmt, row) {
					kept = append(kept, row)
				}
			}
			doors[door] = kept
		}
		if len(doors["Exec"]) == 0 && tab.Name != "sys_rps" { // nothing runs: no live RPs
			t.Errorf("%s is empty: the comparison below would prove nothing", stmt)
		}
		for _, door := range []string{"Submit", "wire"} {
			if !reflect.DeepEqual(doors[door], doors["Exec"]) {
				t.Errorf("%s differs between doors:\n  Exec:   %v\n  %s: %v", stmt, doors["Exec"], door, doors[door])
			}
		}
	}

	// sys_metrics('@qid') is MetricsSnapshot().ForQuery(qid), key for key.
	scoped := remoteRows(t, cli, `select sys_metrics('@`+data.ID()+`');`)
	snap := eng.MetricsSnapshot().ForQuery(data.ID())
	if want := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); len(scoped) != want || want == 0 {
		t.Fatalf("sys_metrics('@%s') has %d rows, the scoped snapshot %d keys", data.ID(), len(scoped), want)
	}
	for _, row := range scoped {
		name := row[1].(string)
		var want []any
		switch row[0] {
		case "counter":
			if v, ok := snap.Counters[name]; ok {
				want = []any{"counter", name, v, int64(0), int64(0), int64(0), int64(0)}
			}
		case "gauge":
			if v, ok := snap.Gauges[name]; ok {
				want = []any{"gauge", name, v, int64(0), int64(0), int64(0), int64(0)}
			}
		case "histogram":
			if h, ok := snap.Histograms[name]; ok {
				want = []any{"histogram", name, int64(0), h.Count, h.SumNs, h.MinNs, h.MaxNs}
			}
		}
		if !reflect.DeepEqual(row, want) {
			t.Errorf("sys_metrics('@%s') row %v, snapshot says %v", data.ID(), row, want)
		}
	}

	// sys_resources is the query's busy time, and Reset rewinds it to nothing.
	if rows := localRows(t, eng, `select sys_resources();`); len(rows) == 0 {
		t.Error("sys_resources() is empty after a Figure 5 query")
	}
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, row := range remoteRows(t, cli, `select sys_resources();`) {
		if row[2] != int64(0) {
			t.Errorf("sys_resources() after Reset: %v, want no busy time", row)
		}
	}

	// A result several frames large arrives complete: rows stream, chunked
	// and credited like any other session's.
	const probes = 4000
	for i := range probes {
		eng.MetricsRegistry().Counter(fmt.Sprintf("probe.one_read_path.%04d", i)).Add(int64(i))
	}
	big := remoteRows(t, cli, `select sys_metrics('probe.one_read_path.');`)
	if len(big) != probes {
		t.Fatalf("sys_metrics('probe.…') returned %d rows over the wire, want %d", len(big), probes)
	}
	bytes := 0
	for i, row := range big {
		if row[2] != int64(i) {
			t.Fatalf("row %d = %v, want value %d", i, row, i)
		}
		bytes += len(row[1].(string))
	}
	if bytes <= maxFrame {
		t.Fatalf("the probe table is %d bytes of names, not larger than one %d-byte frame", bytes, maxFrame)
	}
}

// TestCatalogReadAnswersWhenCongested: a reader is a session that leases no
// node, so the server answers it in the states an operator asks about — a
// session parked at the queue head for lack of nodes, the queue at its cap,
// the server draining — promptly, and with the blocked session in the answer.
func TestCatalogReadAnswersWhenCongested(t *testing.T) {
	_, srv, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Every session names the same two nodes: the first holds them until it
	// is cancelled below, and the next 64 — the scheduler's default cap —
	// wait behind it, which fills the queue. They are submitted and
	// cancelled at once: one at a time, each round trip waits its turn
	// behind the running hog, seconds on one core under the race detector.
	const hogSrc = `
select extract(b)
from sp a, sp b
where b=sp(count(extract(a)), 'bg', 1)
and   a=sp(gen_array(64,1000000000), 'bg', 0);`
	const queueCap = 64
	hog, err := cli.Submit(hogSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	queued := make([]*client.SessionHandle, queueCap)
	var wg sync.WaitGroup
	for i := range queued {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if queued[i], err = cli.Submit(hogSrc, 0); err != nil {
				t.Errorf("queued session %d: %v", i+1, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := cli.Submit(hogSrc, 0); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("session %d: %v, want the admission queue full", queueCap+2, err)
	}

	// read runs a catalog read over the wire, failing if no answer comes.
	read := func(stmt string) [][]any {
		t.Helper()
		type answer struct {
			rows []client.Row
			fin  client.Done
			err  error
		}
		got := make(chan answer, 1)
		go func() {
			var a answer
			h, err := cli.Submit(stmt, 0)
			if a.err = err; err == nil {
				a.rows, a.fin, a.err = h.Wait()
			}
			got <- a
		}()
		select {
		case a := <-got:
			if a.err != nil || a.fin.State != "done" {
				t.Fatalf("%s: err %v, done %+v", stmt, a.err, a.fin)
			}
			vals := make([]any, len(a.rows))
			for i, r := range a.rows {
				vals[i] = r.Value
			}
			return lowerRows(t, stmt, vals)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer in 10 s", stmt)
			return nil
		}
	}
	states := func() map[any]any {
		t.Helper()
		m := map[any]any{}
		for _, r := range read(`select sys_sessions();`) { // id, state, ...
			m[r[0]] = r[1]
		}
		return m
	}
	allQueued := func(st map[any]any) bool {
		for _, h := range queued {
			if st[h.ID] != "queued" {
				return false
			}
		}
		return true
	}
	if st := states(); len(st) != queueCap+2 || !allQueued(st) || st[hog.ID] == "queued" {
		t.Errorf("sys_sessions = %v, want %s holding the nodes, %d queued and the reader", st, hog.ID, queueCap)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(30 * time.Second) }()
	select {
	case <-cli.Draining:
	case <-time.After(10 * time.Second):
		t.Fatal("no Draining frame")
	}
	if st := states(); !allQueued(st) {
		t.Errorf("sys_sessions while draining = %v, want %d still queued", st, queueCap)
	}
	if rows := read(`select sys_conns();`); len(rows) != 1 || rows[0][2] != "draining" {
		t.Errorf("sys_conns while draining = %v, want this connection, draining", rows)
	}
	if _, err := cli.Submit(`select count(iota(1,3));`, 0); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("a statement that is no catalog read, while draining: %v, want refused", err)
	}

	// The drain ends as soon as its sessions do.
	for _, h := range queued {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.Cancel(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := hog.Cancel(); err != nil {
		t.Error(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain did not finish after its sessions were cancelled")
	}
}
