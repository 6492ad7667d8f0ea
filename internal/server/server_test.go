package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scsq"
	"scsq/internal/catalog"
	"scsq/internal/metrics"
	"scsq/internal/race"
	"scsq/internal/scsql"
	"scsq/internal/server"
	"scsq/internal/server/client"
	"scsq/internal/server/wire"
)

// mustBag is EncodeBag for fields known statically to encode; it panics on
// the programming error of an unencodable field.
func mustBag(fields ...any) []byte {
	b, err := wire.EncodeBag(fields...)
	if err != nil {
		panic(err)
	}
	return b
}

// newServer spins up an engine and a listening server on an ephemeral port.
func newServer(t *testing.T, cfg server.Config, opts ...scsq.Option) (*scsq.Engine, *server.Server, string) {
	t.Helper()
	eng, err := scsq.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, cfg)
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return eng, srv, addr.String()
}

// sessionRow is one row of `select sys_sessions();`.
type sessionRow struct {
	id, state string
	nodes     int64
}

func (r sessionRow) final() bool {
	switch r.state {
	case "queued", "admitted", "running":
		return false
	}
	return true
}

// sessionTable reads the session table through the synchronous evaluator,
// so the read is not itself a session of the table.
func sessionTable(t *testing.T, eng *scsq.Engine) []sessionRow {
	t.Helper()
	st, err := eng.Query(`select sys_sessions();`)
	if err != nil {
		t.Fatal(err)
	}
	els, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sessionRow, len(els))
	for i, el := range els {
		tup := el.Value.(catalog.Tuple)
		id, _ := tup.Field("id")
		state, _ := tup.Field("state")
		nodes, _ := tup.Field("nodes")
		rows[i] = sessionRow{id.(string), state.(string), nodes.(int64)}
	}
	return rows
}

func TestHandshakeSubmitStream(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.ServerName == "" || cli.ConnID == "" {
		t.Fatalf("Accepted frame incomplete: name=%q conn=%q", cli.ServerName, cli.ConnID)
	}
	h, err := cli.Submit(`select count(sys_nodes());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h.ID, "q") {
		t.Fatalf("session id = %q", h.ID)
	}
	rows, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	n, ok := rows[0].Value.(int64)
	if !ok || n <= 0 {
		t.Fatalf("count(sys_nodes()) = %#v over the wire", rows[0].Value)
	}
	if done.State != "done" || done.Err != "" || done.Rows != 1 {
		t.Fatalf("done = %+v", done)
	}
}

func TestPipelinedSessions(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// pipeline submits n copies of stmt at once and returns their session
	// ids, failing unless every copy returns the same one row.
	const n = 8
	pipeline := func(stmt string) []string {
		var wg sync.WaitGroup
		vals := make([]int64, n)
		errs := make([]error, n)
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				h, err := cli.Submit(stmt, 0)
				if err != nil {
					errs[i] = err
					return
				}
				ids[i] = h.ID
				rows, done, err := h.Wait()
				if err != nil {
					errs[i] = err
					return
				}
				if len(rows) != 1 || done.State != "done" {
					errs[i] = fmt.Errorf("rows=%d done=%+v", len(rows), done)
					return
				}
				vals[i], _ = rows[0].Value.(int64)
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s session %d: %v", stmt, i, errs[i])
			}
			if vals[i] <= 0 || vals[i] != vals[0] {
				t.Fatalf("%s session %d value %d, session 0 %d", stmt, i, vals[i], vals[0])
			}
		}
		return ids
	}
	// A finished catalog read hands its id back, so two reads that do not
	// overlap may share one: only their values are checked.
	pipeline(`select count(sys_nodes());`)
	// A statement that opens a query keeps its id.
	seen := map[string]bool{}
	for _, id := range pipeline(`select count(extract(a)) from sp a where a=sp(iota(1,3), 'be');`) {
		if seen[id] {
			t.Fatalf("session id %s assigned twice", id)
		}
		seen[id] = true
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgHello, mustBag(int64(99), ""))); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc, 0)
	f, err := r.Next()
	if err != nil {
		t.Fatalf("expected an Error frame, got %v", err)
	}
	if f.Type != wire.MsgError {
		t.Fatalf("frame type %#x, want MsgError", f.Type)
	}
	fs := wire.Fields(f.Payload, 2)
	fs.Int()
	msg := fs.Str()
	if err := fs.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "version") {
		t.Fatalf("rejection %q does not mention the version", msg)
	}
	// The server closes after rejecting.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.Next(); err == nil {
		t.Fatal("connection still open after version rejection")
	}
}

func TestGarbageBeforeHandshake(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	for _, garbage := range [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),                                     // not our protocol
		{0xff, 0xff, 0xff, 0x7f, 0x01},                                                  // absurd length field
		wire.AppendFrame(nil, wire.MsgSubmit, mustBag(int64(0), "select 1;", int64(0))), // valid frame, not Hello
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(garbage); err != nil {
			nc.Close()
			t.Fatal(err)
		}
		// The server must reject (Error frame and/or close) — never Accept.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := wire.NewReader(nc, 0)
		for {
			f, err := r.Next()
			if err != nil {
				break // closed: good
			}
			if f.Type == wire.MsgAccepted {
				t.Fatalf("garbage %q was accepted", garbage)
			}
		}
		nc.Close()
	}
}

func TestAuthHook(t *testing.T) {
	_, _, addr := newServer(t, server.Config{
		Auth: func(token string) error {
			if token != "sesame" {
				return errors.New("bad token")
			}
			return nil
		},
	})
	if _, err := client.Dial(addr, client.Options{Token: "wrong"}); err == nil {
		t.Fatal("bad token accepted")
	} else if !strings.Contains(err.Error(), "authentication") {
		t.Fatalf("rejection %v does not mention authentication", err)
	}
	cli, err := client.Dial(addr, client.Options{Token: "sesame"})
	if err != nil {
		t.Fatalf("good token rejected: %v", err)
	}
	cli.Close()
}

func TestShedOverMaxConns(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{MaxConns: 1})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := client.Dial(addr, client.Options{DialTimeout: 2 * time.Second}); err == nil {
		t.Fatal("connection over the cap was accepted")
	}
	shed := eng.MetricsRegistry().Counter("server.conns.shed").Value()
	if shed < 1 {
		t.Fatalf("server.conns.shed = %d, want >= 1", shed)
	}
}

// TestServeOverPipe: a connection handed to Serve is served as an accepted
// one — no listener needed — and shed over the cap or refused once the
// server drains, as the accept loop's are.
func TestServeOverPipe(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxConns: 1})
	serve := func() (*client.Client, error) {
		cliEnd, srvEnd := net.Pipe()
		srv.Serve(srvEnd)
		return client.New(cliEnd, client.Options{DialTimeout: 2 * time.Second})
	}
	cli, err := serve()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli.Submit(`select x from integer x where x in iota(1,3);`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows, fin, err := h.Wait(); err != nil || fin.State != "done" || len(rows) != 3 {
		t.Fatalf("session over a pipe: %d rows, %+v, %v", len(rows), fin, err)
	}
	if _, err := serve(); err == nil {
		t.Fatal("a connection over the cap was served")
	}
	cli.Close()
	srv.Close()
	if _, err := serve(); err == nil {
		t.Fatal("a closed server served a connection")
	}
}

func TestSysConnsOverWire(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// The catalog listing includes sys_conns alongside the engine's own.
	names := map[string]bool{}
	for _, tab := range remoteRows(t, cli, `select sys_tables();`) {
		names[tab[0].(string)] = true
	}
	for _, want := range []string{"sys_conns", "sys_sessions", "sys_nodes", "sys_links", "sys_rps", "sys_metrics", "sys_resources", "sys_tables"} {
		if !names[want] {
			t.Fatalf("catalog listing %v misses %s", names, want)
		}
	}

	// A snapshot over the wire sees this very connection.
	rows := remoteRows(t, cli, `select sys_conns();`)
	if len(rows) != 1 {
		t.Fatalf("sys_conns has %d rows, want 1", len(rows))
	}
	if id, _ := rows[0][0].(string); id != cli.ConnID {
		t.Fatalf("sys_conns row id %v != handshake conn id %q", rows[0][0], cli.ConnID)
	}

	// A live stream over the wire reflects the connection count as it
	// changes: the initial snapshot carries one row per open connection,
	// and a new connection shows up as a delta on the next vtime tick.
	h, err := cli.Submit(`select streamof(sys_conns());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	row, ok, _ := h.Recv()
	if !ok {
		t.Fatal("live sys_conns stream ended at the initial snapshot")
	}
	first, ok := row.Value.([]any)
	if !ok || len(first) != len(server.SysConnsSchema) {
		t.Fatalf("live row = %#v, want a %d-column tuple", row.Value, len(server.SysConnsSchema))
	}

	cli2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	sawNew := make(chan struct{})
	go func() {
		for {
			row, ok, _ := h.Recv()
			if !ok {
				return
			}
			if vals, ok := row.Value.([]any); ok && len(vals) > 0 {
				if id, _ := vals[0].(string); id == cli2.ConnID {
					close(sawNew)
					return
				}
			}
		}
	}()
	// A query of the second connection's moves the policy clock: the live
	// stream re-polls on its progress and finds the connection.
	q, err := cli2.Submit(scsql.Figure5Query(30_000, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := q.Wait(); err != nil || done.State != "done" {
		t.Fatalf("ticking query: %+v, %v", done, err)
	}
	select {
	case <-sawNew:
	case <-time.After(10 * time.Second):
		t.Fatal("live sys_conns stream never showed the second connection")
	}
	if err := h.Cancel(); err != nil {
		t.Fatalf("cancel live stream: %v", err)
	}
	_, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "cancelled" {
		t.Fatalf("live stream finished %+v, want cancelled", done)
	}
}

func TestCancelInFlight(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	h, err := cli.Submit(`select streamof(sys_sessions());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Recv(); !ok {
		t.Fatal("no initial snapshot row")
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	_, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "cancelled" || !strings.Contains(done.Err, "cancel") {
		t.Fatalf("done = %+v, want cancelled", done)
	}
}

// dialKillable dials addr as client.Dial does and returns kill, which drops
// the transport under the client — no Goodbye, mid-frame if a write is in
// flight: the misbehaving-client path the server must survive — and waits
// for the client's reader to end.
func dialKillable(addr string) (cli *client.Client, kill func(), err error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if cli, err = client.New(nc, client.Options{}); err != nil {
		return nil, nil, err
	}
	return cli, func() { nc.Close(); cli.Close() }, nil
}

func TestMidStreamDisconnectReleasesLeases(t *testing.T) {
	eng, srv, addr := newServer(t, server.Config{})
	cli, kill, err := dialKillable(addr)
	if err != nil {
		t.Fatal(err)
	}
	// A Figure-5-shaped query holds two BG node leases and streams a row
	// per generated array — long enough to be mid-stream when we cut the
	// connection.
	h, err := cli.Submit(scsql.Figure5Query(64, 20000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Recv(); !ok {
		t.Fatal("no first row before disconnect")
	}
	// The session's row in the table: the session may finish before the
	// disconnect, and the table keeps a finished session's row, not its handle.
	row := func() (state string, final bool, nodes int64) {
		for _, r := range sessionTable(t, eng) {
			if r.id == h.ID {
				return r.state, r.final(), r.nodes
			}
		}
		t.Fatalf("session %s is not in the session table", h.ID)
		return
	}
	kill() // abrupt: no Goodbye, transport just dies

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, final, nodes := row(); final && nodes == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, final, _ := row(); !final {
		t.Fatalf("session %s still %v after disconnect", h.ID, st)
	}
	if _, _, n := row(); n != 0 {
		t.Fatalf("session %s still holds %d leases after disconnect", h.ID, n)
	}
	// The connection unregisters, so sys_conns drains to empty.
	for time.Now().Before(deadline) && len(localRows(t, eng, `select sys_conns();`)) > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if rows := localRows(t, eng, `select sys_conns();`); len(rows) != 0 {
		t.Fatalf("sys_conns still has %d rows after disconnect", len(rows))
	}
	_ = srv
}

func TestGracefulDrain(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Warm the engine (its kernel's workers belong to the engine, not the
	// server) before taking the goroutine baseline the drain must return to.
	if s, err := eng.Submit(`select count(sys_nodes());`); err != nil {
		t.Fatal(err)
	} else if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	srv := server.New(eng, server.Config{})
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}

	cli, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One finite session (completes inside the grace) and one live stream
	// (must be cancelled by the drain).
	fin, err := cli.Submit(`select count(sys_nodes());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	live, err := cli.Submit(`select streamof(sys_sessions());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := live.Recv(); !ok {
		t.Fatal("live stream dead before drain")
	}

	if err := srv.Drain(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The drain announcement reached the client.
	select {
	case <-cli.Draining:
	default:
		t.Error("client never saw the Draining frame")
	}
	// Every session ended with a terminal record: the finite one done, the
	// live one cancelled.
	_, fdone, err := fin.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if fdone.State != "done" {
		t.Errorf("finite session drained as %+v, want done", fdone)
	}
	_, ldone, err := live.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ldone.State != "cancelled" {
		t.Errorf("live session drained as %+v, want cancelled", ldone)
	}
	// New connections are refused.
	if _, err := client.Dial(addr.String(), client.Options{DialTimeout: time.Second}); err == nil {
		t.Error("dial succeeded after drain")
	}
	cli.Close()

	// Zero goroutine leak: everything the server spawned has exited.
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestSysConnsSchemaGolden is the drift guard for the sys_conns contract:
// the live schema, the golden literal here, and DESIGN.md §14 must move
// together.
func TestSysConnsSchemaGolden(t *testing.T) {
	const golden = "(id string, remote string, state string, sessions int, submitted int, rows_out int, frames_in int, frames_out int)"
	if got := server.SysConnsSchema.String(); got != golden {
		t.Fatalf("sys_conns schema drifted:\n  live:   %s\n  golden: %s", got, golden)
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "sys_conns "+golden) {
		t.Fatal("DESIGN.md does not document sys_conns with the live schema — update §14")
	}
}

// TestServerlessCatalogUnchanged proves attaching no server leaves the
// golden catalog intact (the scsql drift guard depends on it).
func TestServerlessCatalogUnchanged(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, tab := range localRows(t, eng, `select sys_tables();`) {
		if tab[0] == "sys_conns" {
			t.Fatal("sys_conns registered without a server attached")
		}
	}
}

// TestTagReusableAfterDone proves a finished session is evicted from the
// connection's session table: its tag is free for a new submit, rather
// than failing "already in flight" for the life of the connection.
func TestTagReusableAfterDone(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgHello, mustBag(int64(wire.ProtoVersion), ""))); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc, 0)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := r.Next(); err != nil || f.Type != wire.MsgAccepted {
		t.Fatalf("handshake: frame %#v err %v", f, err)
	}
	const tag = int64(7)
	for round := 0; round < 2; round++ {
		if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgSubmit, mustBag(tag, `select count(sys_nodes());`, int64(0)))); err != nil {
			t.Fatal(err)
		}
		sawSubmitted, sawDone := false, false
		for !sawDone {
			f, err := r.Next()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			switch f.Type {
			case wire.MsgSubmitted:
				sawSubmitted = true
			case wire.MsgDone:
				sawDone = true
			case wire.MsgError:
				fs := wire.Fields(f.Payload, 2)
				fs.Int()
				t.Fatalf("round %d: tag %d rejected: %s", round, tag, fs.Str())
			}
		}
		if !sawSubmitted {
			t.Fatalf("round %d: no Submitted ack for tag %d", round, tag)
		}
	}
}

// TestCancelByIDScopedToConnection proves the negative-tag cancel form
// cannot reach across connections: one client killing another client's
// query must fail, while cancelling its own session by id succeeds.
func TestCancelByIDScopedToConnection(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	victim, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	attacker, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	h, err := victim.Submit(`select streamof(sys_sessions());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Recv(); !ok {
		t.Fatal("no initial snapshot row")
	}
	if err := attacker.CancelID(h.ID); err == nil {
		t.Fatalf("cross-connection cancel of %s succeeded", h.ID)
	} else if !strings.Contains(err.Error(), "no session") {
		t.Fatalf("cross-connection cancel failed with %v, want a scoping error", err)
	}
	// The victim's stream is still live and cancellable by its owner.
	if err := victim.CancelID(h.ID); err != nil {
		t.Fatalf("own-connection cancel by id: %v", err)
	}
	_, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "cancelled" {
		t.Fatalf("victim session finished %+v, want cancelled by its owner", done)
	}
}

// pipeClient serves one end of a net.Pipe on srv, as the shell serves its own
// engine, and returns a client of the other end.
func pipeClient(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	srv.Serve(srvEnd)
	cli, err := client.New(cliEnd, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestServerErrorNamesTheServerOnce: an Error frame reaches the caller as
// the server wrote it — a server-made message says "server: " once, the
// client adds no second prefix.
func TestServerErrorNamesTheServerOnce(t *testing.T) {
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{})
	defer srv.Close()
	err = pipeClient(t, srv).CancelID("q9")
	if err == nil || strings.Count(err.Error(), "server: ") != 1 || !strings.Contains(err.Error(), `no session "q9"`) {
		t.Fatalf("cancel of an unknown session: %v, want one %q before the server's message", err, "server: ")
	}
}

// TestServersOfOneEngineShareSysConns: a second server on an engine neither
// hides the first one's connections nor numbers its own from c1 again —
// connection ids are the engine's, and each server's sys_conns lists every
// connection of the engine.
func TestServersOfOneEngineShareSysConns(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{})
	tcp, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	second := server.New(eng, server.Config{})
	defer second.Close()
	pipe := pipeClient(t, second)
	if tcp.ConnID == pipe.ConnID {
		t.Fatalf("both servers numbered their connection %s", tcp.ConnID)
	}
	for _, cli := range []*client.Client{tcp, pipe} {
		ids := map[any]bool{}
		for _, row := range remoteRows(t, cli, `select sys_conns();`) {
			ids[row[0]] = true
		}
		if len(ids) != 2 || !ids[tcp.ConnID] || !ids[pipe.ConnID] {
			t.Errorf("sys_conns read through %s lists %v, want %s and %s", cli.ConnID, ids, tcp.ConnID, pipe.ConnID)
		}
	}
}

// TestServersOfOneEngineCountOpenConnections: rt.server.conns.open is the
// engine's gauge, so two servers that each hold one connection read 2, and
// it falls back to 0 as both close.
func TestServersOfOneEngineCountOpenConnections(t *testing.T) {
	eng, first, _ := newServer(t, server.Config{})
	second := server.New(eng, server.Config{})
	defer second.Close()
	open := func() int64 { return eng.MetricsSnapshot().Gauges[metrics.RTPrefix+"server.conns.open"] }
	a, b := pipeClient(t, first), pipeClient(t, second)
	if got := open(); got != 2 {
		t.Fatalf("two servers holding one connection each: conns.open = %d, want 2", got)
	}
	a.Close()
	b.Close()
	for deadline := time.Now().Add(10 * time.Second); open() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("conns.open = %d after both connections closed, want 0", open())
		}
	}
}

// TestCancelStatementCannotReachAnotherConnection: a statement is no way to
// cancel a session. `select cancel('qN');` from a second connection fails,
// and the first connection's session runs on until its owner cancels it.
func TestCancelStatementCannotReachAnotherConnection(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{})
	victim, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	attacker, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	h, err := victim.Submit(`select streamof(sys_sessions());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Recv(); !ok {
		t.Fatal("no initial snapshot row")
	}
	stmt := `select cancel('` + h.ID + `');`
	if a, err := attacker.Submit(stmt, 0); err == nil {
		_, done, err := a.Wait()
		if err == nil && done.Err == "" {
			t.Fatalf("%s from another connection ended %+v, want an error", stmt, done)
		}
	}
	for _, r := range sessionTable(t, eng) {
		if r.id == h.ID && r.final() {
			t.Fatalf("victim session %s is %s after %s from another connection", h.ID, r.state, stmt)
		}
	}
	if err := victim.CancelID(h.ID); err != nil {
		t.Fatalf("owner's cancel by id: %v", err)
	}
	_, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "cancelled" {
		t.Fatalf("victim session finished %+v, want cancelled by its owner", done)
	}
}

// rawConn is a client that speaks the protocol by hand, for tests that
// look at the bytes.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgHello, mustBag(int64(wire.ProtoVersion), ""))); err != nil {
		t.Fatal(err)
	}
	return nc
}

// TestOutboundByteStreamGolden pins the wire format of the serving fast
// path: everything the server writes for a fixed conversation — handshake,
// a 600-row integer session (more than one chunk), a session of catalog
// tuples — must equal, byte for byte, the frames the generic codec
// (WireValue, EncodeBag, AppendFrame) builds from the same elements. Rows
// are batched into socket writes, never into frames.
func TestOutboundByteStreamGolden(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{})
	stmts := []string{
		`select i from integer i where i in iota(1,600);`,
		`select n from stream n where n in sys_nodes() and n.cluster = 'fe';`,
	}
	nc := rawConn(t, addr)
	expect := func(what string, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(nc, got); err != nil {
			t.Fatalf("%s: reading %d outbound bytes: %v", what, len(want), err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for got[at] == want[at] {
				at++
			}
			t.Fatalf("%s: outbound stream differs from the reference at byte %d of %d", what, at, len(want))
		}
	}
	expect("handshake", wire.AppendFrame(nil, wire.MsgAccepted,
		mustBag(int64(wire.ProtoVersion), "scsq-server/1", "c1")))
	// A Ping is answered by a Pong of its nonce.
	if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgPing, mustBag(int64(-7)))); err != nil {
		t.Fatal(err)
	}
	expect("ping", wire.AppendFrame(nil, wire.MsgPong, mustBag(int64(-7))))
	for i, stmt := range stmts {
		tag := int64(40 + i)
		if _, err := nc.Write(wire.AppendFrame(nil, wire.MsgSubmit, mustBag(tag, stmt, int64(0)))); err != nil {
			t.Fatal(err)
		}
		// Sessions alternate wire, reference: q1, q2, q3, q4.
		expect(stmt, wire.AppendFrame(nil, wire.MsgSubmitted, mustBag(tag, fmt.Sprintf("q%d", 2*i+1))))
		// The reference: the same statement in process. Neither statement
		// spawns a stream process, so elements and makespan repeat exactly.
		ref, err := eng.Submit(stmt)
		if err != nil {
			t.Fatal(err)
		}
		els, err := ref.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(els) < 2 {
			t.Fatalf("%s: %d reference elements", stmt, len(els))
		}
		var want []byte
		for _, el := range els {
			want = wire.AppendFrame(want, wire.MsgRow,
				mustBag(tag, el.At.Nanoseconds(), el.Source, wire.WireValue(el.Value)))
		}
		expect(stmt, wire.AppendFrame(want, wire.MsgDone,
			mustBag(tag, "done", "", ref.Makespan().Nanoseconds(), int64(len(els)))))
	}
	// Nothing follows the last Done.
	nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := nc.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("the server wrote past the last Done frame")
	}
}

// TestRowDeliveredWithoutWaitingForNext: batching must not trade first-row
// latency for throughput. A live stream emits one row (this connection's
// sys_conns entry) and then stalls on the virtual clock, which nothing
// advances here; the row must arrive all the same, while the session runs.
func TestRowDeliveredWithoutWaitingForNext(t *testing.T) {
	eng, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	h, err := cli.Submit(`select streamof(sys_conns());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan client.Row, 2)
	go func() {
		for {
			row, ok, _ := h.Recv()
			if !ok {
				close(got)
				return
			}
			got <- row
		}
	}()
	select {
	case row, ok := <-got:
		if tup, _ := row.Value.([]any); !ok || len(tup) == 0 || tup[0] != cli.ConnID {
			t.Fatalf("first row = %#v (stream open: %v), want this connection's sys_conns tuple", row.Value, ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the only row of a stalled session never arrived: it is waiting for a second one")
	}
	live := false
	for _, r := range sessionTable(t, eng) {
		live = live || r.id == h.ID && !r.final()
	}
	if !live {
		t.Fatalf("session %s is not live: the stream did not stall, so the test proved nothing", h.ID)
	}
	select {
	case row, ok := <-got:
		t.Fatalf("a second row (%#v, open %v) arrived from a stalled stream", row.Value, ok)
	case <-time.After(50 * time.Millisecond):
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	for range got {
	}
}

// TestRowPathAllocations is the end-to-end allocation guard of the serving
// fast path: a 2 000-row session over loopback — engine, pump, writer,
// client reader, Recv — stays within a quarter of an allocation and 12 bytes
// (engine) or 40 bytes (sp) per row on a warm connection. The result log
// writes each element into a segment the scheduler recycles once the pump
// has read it, and each integer of 256 or more into that segment's word for
// it, so a warm session's log allocates nothing; iota and the client
// manager's receiver lend the drain each integer in one word of their own
// (sqep.Borrowed), so only the client's row decoder takes a word of a shared
// slab for it (8 B); the client reuses the last row's Source when the next
// is the same, and hands rows over in recycled slices. What is left per row
// is that slab and the session's fixed costs spread over 2 000 rows (best of
// 30: ≈ 9 B for engine, ≈ 10 B for sp). The engine bound is that plus 3 B,
// less than the 7 B per row (1 745 words of 8 B) that boxing the integers on
// the server again adds. A log that keeps its segments (59–69 B/row), one
// regrown by append or a row queue allocated per Submit each break the bytes
// bound on their own; a value boxed on the heap again, or a Source copied
// per row, breaks the count. Under the race detector, whose instrumentation
// allocates, the sessions run and nothing is counted: the words the result
// log and the client's reader write are read on other goroutines.
func TestRowPathAllocations(t *testing.T) {
	const rows = 2000
	for _, c := range []struct {
		name, query string
		maxBytes    float64
	}{
		{"engine", fmt.Sprintf(`select i from integer i where i in iota(1,%d);`, rows), 12},
		{"sp", fmt.Sprintf(`select extract(a) from sp a where a=sp(iota(1,%d),'bg',0);`, rows), 40},
	} {
		t.Run(c.name, func(t *testing.T) { checkRowPathAllocations(t, c.query, rows, c.maxBytes) })
	}
}

func checkRowPathAllocations(t *testing.T, query string, rows int, maxBytes float64) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	session := func() {
		h, err := cli.Submit(query, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, sum := 0, int64(0)
		for {
			row, ok, fin := h.Recv()
			if !ok {
				if fin == nil || fin.State != "done" || fin.Rows != int64(rows) || n != rows || sum != int64(rows*(rows+1)/2) {
					t.Fatalf("session ended %+v after %d rows summing to %d", fin, n, sum)
				}
				return
			}
			v, _ := row.Value.(int64)
			n, sum = n+1, sum+v
		}
	}
	session() // warm: reader buffers, the client's row slices, parser tables
	if race.Enabled {
		session()
		return
	}
	// The count is steady and every measured session must keep it. The
	// bytes are not: a pump running ahead of the writer grows fresh chunks
	// by append — up to 180 B/row in one session, none in the next, because
	// the chunk pool hands small buffers to big batches and runs dry when
	// the pump is far ahead. That is the writer's noise and only ever
	// additive, while a regression of the row path itself shows in every
	// session; so the bytes bound alone is met by the cheapest of up to 30
	// sessions.
	const maxAllocs = 0.25
	bestBytes := math.Inf(1)
	for i := 0; i < 30 && bestBytes > maxBytes; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		session()
		runtime.ReadMemStats(&after)
		perRow := float64(after.Mallocs-before.Mallocs) / float64(rows)
		if perRow > maxAllocs {
			t.Fatalf("%.2f allocations per row end to end, want at most %v", perRow, maxAllocs)
		}
		perRowB := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
		t.Logf("%.2f allocations, %.1f bytes per row end to end", perRow, perRowB)
		bestBytes = min(bestBytes, perRowB)
	}
	if bestBytes > maxBytes {
		t.Fatalf("%.1f bytes allocated per row end to end, want at most %v", bestBytes, maxBytes)
	}
}

// TestSessionControlAllocations pins what one warm one-row session costs end
// to end over loopback — engine, server and client. Its control frames
// (Submit, Submitted, Done) are written by Encoders into pooled chunks and
// the client's kept write buffer and read by Cursors in place, so of them
// only the statement and the session id are allocated; the rest is the
// session itself, whose text Parse's cache does not parse again. A Done
// frame built through the bag codec again costs about seven allocations
// more and breaks the bound. Under the race detector the
// sessions run and nothing is counted.
func TestSessionControlAllocations(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	session := func() {
		h, err := cli.Submit(`select i from integer i where i in iota(1,1);`, 0)
		if err != nil {
			t.Fatal(err)
		}
		row, ok, _ := h.Recv()
		if v, _ := row.Value.(int64); !ok || v != 1 {
			t.Fatalf("first row %+v, open %v", row, ok)
		}
		if _, ok, fin := h.Recv(); ok || fin == nil || fin.State != "done" || fin.Rows != 1 {
			t.Fatalf("session ended %+v", fin)
		}
	}
	for range 20 {
		session() // warm: parser tables, chunk pool, row slices, buffers
	}
	if race.Enabled {
		return
	}
	const sessions = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sessions {
		session()
	}
	runtime.ReadMemStats(&after)
	// 26.1–26.4 at GOMAXPROCS 1, 2 and 4 (37.1–37.2 while every session
	// parsed its text again, 78.2 with the bag codec).
	const maxAllocs = 27
	n := float64(after.Mallocs-before.Mallocs) / sessions
	if n > maxAllocs {
		t.Fatalf("%.1f allocations per one-row session end to end, want at most %d", n, maxAllocs)
	}
	t.Logf("%.1f allocations per one-row session end to end", n)
}
