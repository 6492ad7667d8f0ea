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
	"scsq/internal/race"
	"scsq/internal/scsql"
	"scsq/internal/server"
	"scsq/internal/server/client"
	"scsq/internal/server/wire"
)

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
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
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

	const n = 8
	var wg sync.WaitGroup
	vals := make([]int64, n)
	errs := make([]error, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := cli.Submit(`select count(sys_nodes());`, 0)
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
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] {
			t.Fatalf("session %d value %d != %d", i, vals[i], vals[0])
		}
		if seen[ids[i]] {
			t.Fatalf("session id %s assigned twice", ids[i])
		}
		seen[ids[i]] = true
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	_, _, addr := newServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.MustBag(int64(99), "")); err != nil {
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
	fields, err := wire.DecodeBag(f.Payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := wire.Str(fields, 1)
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
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),                                          // not our protocol
		{0xff, 0xff, 0xff, 0x7f, 0x01},                                                       // absurd length field
		wire.AppendFrame(nil, wire.MsgSubmit, wire.MustBag(int64(0), "select 1;", int64(0))), // valid frame, not Hello
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

func TestMidStreamDisconnectReleasesLeases(t *testing.T) {
	eng, srv, addr := newServer(t, server.Config{})
	cli, err := client.Dial(addr, client.Options{})
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
	row := func() (state string, final bool, nodes int) {
		for _, in := range eng.Scheduler().List() {
			if in.ID == h.ID {
				return in.State.String(), in.State.Final(), in.Nodes
			}
		}
		t.Fatalf("session %s is not in the session table", h.ID)
		return
	}
	cli.Kill() // abrupt: no Goodbye, transport just dies

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
	// Warm the engine (its lazy background goroutines — coordinator
	// pollers — belong to the engine, not the server) before taking the
	// goroutine baseline the drain must return to.
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
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.MustBag(int64(wire.ProtoVersion), "")); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc, 0)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := r.Next(); err != nil || f.Type != wire.MsgAccepted {
		t.Fatalf("handshake: frame %#v err %v", f, err)
	}
	const tag = int64(7)
	for round := 0; round < 2; round++ {
		if err := wire.WriteFrame(nc, wire.MsgSubmit, wire.MustBag(tag, `select count(sys_nodes());`, int64(0))); err != nil {
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
				fields, _ := wire.DecodeBag(f.Payload, 2)
				msg, _ := wire.Str(fields, 1)
				t.Fatalf("round %d: tag %d rejected: %s", round, tag, msg)
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
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.MustBag(int64(wire.ProtoVersion), "")); err != nil {
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
		wire.MustBag(int64(wire.ProtoVersion), "scsq-server/1", "c1")))
	for i, stmt := range stmts {
		tag := int64(40 + i)
		if err := wire.WriteFrame(nc, wire.MsgSubmit, wire.MustBag(tag, stmt, int64(0))); err != nil {
			t.Fatal(err)
		}
		// Sessions alternate wire, reference: q1, q2, q3, q4.
		expect(stmt, wire.AppendFrame(nil, wire.MsgSubmitted, wire.MustBag(tag, fmt.Sprintf("q%d", 2*i+1))))
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
				wire.MustBag(tag, el.At.Nanoseconds(), el.Source, wire.WireValue(el.Value)))
		}
		expect(stmt, wire.AppendFrame(want, wire.MsgDone,
			wire.MustBag(tag, "done", "", ref.Makespan().Nanoseconds(), int64(len(els)))))
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
	for _, in := range eng.Scheduler().List() {
		live = live || in.ID == h.ID && !in.State.Final()
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
// client reader, Recv — stays within a quarter of an allocation and 90 bytes
// per row on a warm connection. The result log keeps each element (40 B,
// never copied); every integer of 256 or more takes a word of a shared slab
// where it is produced (iota, 8 B) and again where it is decoded (the
// client's row decoder, and the client manager's receiver when an SP
// produced it); the client reuses the last row's Source when the next is the
// same, and hands rows over in recycled slices. What is left per row is the
// slabs' and the session's fixed costs spread over 2 000 rows. A log regrown
// by append or a row queue allocated per Submit each break the bytes bound
// on their own (146 B/row); a value boxed on the heap again, or a Source
// copied per row, breaks the count. Under the race detector, whose
// instrumentation allocates, the sessions run and nothing is counted: the
// slab words written by iota, the receiver and the client's reader are read
// on other goroutines.
func TestRowPathAllocations(t *testing.T) {
	const rows = 2000
	for _, c := range []struct {
		name, query string
		maxBytes    float64
	}{
		{"engine", fmt.Sprintf(`select i from integer i where i in iota(1,%d);`, rows), 90},
		{"sp", fmt.Sprintf(`select extract(a) from sp a where a=sp(iota(1,%d),'bg',0);`, rows), 90},
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
