package client

// The client against a scripted peer over net.Pipe: every frame the "server"
// sends, and how it is cut into writes, is chosen by the test. A pipe has no
// buffer, so one Write of the peer is one Read of the client — which is what
// lets the batch-boundary cases place a frame boundary exactly.

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"scsq/internal/server/wire"
)

// peer is the scripted server end of the pipe.
type peer struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
}

// expect reads the client's next frame, which must be of type typ, and
// returns its fields.
func (p *peer) expect(typ byte) []any {
	p.t.Helper()
	f, err := p.r.Next()
	if err != nil {
		p.t.Errorf("peer: waiting for frame %#x: %v", typ, err)
		return nil
	}
	if f.Type != typ {
		p.t.Errorf("peer: got frame %#x, want %#x", f.Type, typ)
	}
	fields, err := wire.DecodeBag(f.Payload, 0)
	if err != nil {
		p.t.Errorf("peer: frame %#x: %v", f.Type, err)
	}
	return fields
}

// expectSubmit reads a Submit and returns its tag.
func (p *peer) expectSubmit() int64 {
	p.t.Helper()
	fields := p.expect(wire.MsgSubmit)
	if len(fields) < 3 {
		return -1
	}
	tag, _ := wire.Int(fields, 0)
	return tag
}

// write sends bytes as one Write — one Read on the client's side.
func (p *peer) write(b []byte) {
	p.t.Helper()
	if _, err := p.nc.Write(b); err != nil {
		p.t.Errorf("peer: write: %v", err)
	}
}

func frame(typ byte, fields ...any) []byte {
	return wire.AppendFrame(nil, typ, wire.MustBag(fields...))
}

func row(tag, value int64) []byte {
	return frame(wire.MsgRow, tag, int64(0), "", value)
}

func cat(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// dialPipe connects a client to script over a pipe. The script starts after
// the Hello arrived; when it returns the peer keeps reading (and ignoring)
// until the client closes, so Close's Goodbye never blocks.
func dialPipe(t *testing.T, opts Options, script func(p *peer)) (*Client, error) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	deadline := time.Now().Add(20 * time.Second)
	cliEnd.SetDeadline(deadline)
	srvEnd.SetDeadline(deadline)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvEnd.Close()
		p := &peer{t: t, nc: srvEnd, r: wire.NewReader(srvEnd, 0)}
		if hello := p.expect(wire.MsgHello); len(hello) < 2 {
			return
		}
		script(p)
		io.Copy(io.Discard, srvEnd)
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		<-done
	})
	opts.DialTimeout = 10 * time.Second
	c, err := handshake(cliEnd, opts)
	if err != nil {
		cliEnd.Close()
	}
	return c, err
}

func accepted() []byte {
	return frame(wire.MsgAccepted, int64(wire.ProtoVersion), "scripted/1", "c9")
}

func TestHandshakeRejections(t *testing.T) {
	cases := map[string]struct {
		reply []byte
		want  string
	}{
		"error frame":      {frame(wire.MsgError, int64(-1), "wrong phase of the moon"), "wrong phase of the moon"},
		"unreadable error": {wire.AppendFrame(nil, wire.MsgError, []byte{0xff}), "unreadable error"},
		"unexpected frame": {frame(wire.MsgPong, int64(1)), "unexpected frame 0x45"},
		"closed":           {nil, "EOF"},
		"torn frame":       {accepted()[:7], "unexpected EOF"},
	}
	for name, tc := range cases {
		_, err := dialPipe(t, Options{}, func(p *peer) {
			if tc.reply != nil {
				p.write(tc.reply)
			}
			p.nc.Close()
		})
		if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: handshake err = %v, want ErrRejected mentioning %q", name, err, tc.want)
		}
	}
	// And the accepting path fills in what the server said.
	c, err := dialPipe(t, Options{Token: "sesame"}, func(p *peer) { p.write(accepted()) })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerName != "scripted/1" || c.ConnID != "c9" {
		t.Fatalf("client sees server %q conn %q", c.ServerName, c.ConnID)
	}
}

// TestMalformedRowDropped: a Row the client cannot read is skipped — its
// session simply does not get it — and the reader lives on.
func TestMalformedRowDropped(t *testing.T) {
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		tag := p.expectSubmit()
		p.write(frame(wire.MsgSubmitted, tag, "q1"))
		p.write(row(tag, 1))
		p.write(wire.AppendFrame(nil, wire.MsgRow, []byte{0xff, 0x01}))               // not marshal at all
		p.write(frame(wire.MsgRow, tag, int64(0), ""))                                // three fields
		p.write(frame(wire.MsgRow, "tag", int64(0), "", int64(9)))                    // tag is not an int
		p.write(wire.AppendFrame(nil, wire.MsgRow, append(row(tag, 9)[5:], 0x01)))    // trailing byte
		p.write(frame(wire.MsgRow, tag+1000, int64(0), "", int64(9)))                 // nobody's session
		p.write(frame(wire.MsgRow, tag, "soon", 4.5, int64(2), "a field from later")) // odd but readable
		p.write(frame(wire.MsgDone, tag, "done", "", int64(77), int64(8)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Value != int64(1) || rows[1].Value != int64(2) {
		t.Fatalf("rows = %+v, want the two readable ones", rows)
	}
	if rows[1].At != 0 || rows[1].Source != "" {
		t.Fatalf("mistyped at/source decoded as %+v, want zero values", rows[1])
	}
	if done.State != "done" || done.Rows != 8 || done.Makespan != 77 {
		t.Fatalf("done = %+v", done)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection failed on a malformed row: %v", err)
	}
}

// TestCancelledSessionWithFullQueueDoesNotWedgeOthers: the reader blocks on
// a live session's full queue (that is the backpressure), but once the
// session is cancelled its consumer may be gone, and rows that do not fit
// are dropped so the connection's other sessions keep flowing.
func TestCancelledSessionWithFullQueueDoesNotWedgeOthers(t *testing.T) {
	c, err := dialPipe(t, Options{RecvBuffer: 1}, func(p *peer) {
		p.write(accepted())
		a := p.expectSubmit()
		p.write(frame(wire.MsgSubmitted, a, "q1"))
		b := p.expectSubmit()
		p.write(frame(wire.MsgSubmitted, b, "q2"))
		p.write(row(a, 1)) // fills a's queue; nobody reads it
		if fields := p.expect(wire.MsgCancel); len(fields) < 2 || fields[0] != a {
			p.t.Errorf("peer: cancel fields %v, want tag %d", fields, a)
		}
		p.write(frame(wire.MsgOK, a))
		for i := int64(2); i <= 5; i++ {
			p.write(row(a, i)) // in flight when the cancel landed
		}
		p.write(cat(row(b, 10), row(b, 20), frame(wire.MsgDone, b, "done", "", int64(0), int64(2))))
		p.write(frame(wire.MsgDone, a, "cancelled", "cancelled by user", int64(0), int64(5)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ha, err := c.Submit("select a;", 0)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Submit("select b;", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Cancel(); err != nil {
		t.Fatal(err)
	}
	rows, done, err := hb.Wait()
	if err != nil || len(rows) != 2 || done.Rows != 2 {
		t.Fatalf("session b behind a cancelled, unread session: %d rows, done %+v, err %v", len(rows), done, err)
	}
	rows, done, err = ha.Wait()
	if err != nil || done.State != "cancelled" || len(rows) != 1 {
		t.Fatalf("cancelled session: %d rows (queue of 1), done %+v, err %v", len(rows), done, err)
	}
}

// TestConnectionDeathMidStream: rows already received stay readable, the
// stream then ends with a nil terminal record, and Wait says why.
func TestConnectionDeathMidStream(t *testing.T) {
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		tag := p.expectSubmit()
		p.write(frame(wire.MsgSubmitted, tag, "q1"))
		p.write(row(tag, 1))
		p.write(row(tag, 2)[:11]) // dies inside a frame
		p.nc.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, _ := h.Recv(); !ok || r.Value != int64(1) {
		t.Fatalf("first row = %+v, %v", r, ok)
	}
	if r, ok, fin := h.Recv(); ok || fin != nil {
		t.Fatalf("after the connection died: row %+v, ok %v, done %+v; want a nil terminal record", r, ok, fin)
	}
	if _, _, err := h.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait err = %v, want ErrClosed", err)
	}
	if !errors.Is(c.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("client error = %v, want the torn frame's ErrUnexpectedEOF", c.Err())
	}
	if _, err := c.Submit("select 2;", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit on a dead connection: %v, want ErrClosed", err)
	}
}

// TestFrameBoundariesIndependentOfReads: the server packs many frames into
// one socket write and TCP cuts the stream where it likes; the client must
// see the same frames however they arrive.
func TestFrameBoundariesIndependentOfReads(t *testing.T) {
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		tag := p.expectSubmit()
		// The ack and the first rows in one read: the ack's payload is
		// parked with Submit's waiter while the reader moves on and reuses
		// its buffer, so the id must have been copied out.
		p.write(cat(frame(wire.MsgSubmitted, tag, "q-parked"), row(tag, 1), row(tag, 2)))
		// A row split inside its length prefix, and again inside its body.
		r3 := row(tag, 3)
		p.write(r3[:2])
		p.write(r3[2:20])
		p.write(r3[20:])
		// The last row and the Done in one read.
		p.write(cat(row(tag, 4), frame(wire.MsgDone, tag, "done", "", int64(5), int64(4))))

		// A reply parked with its waiter, overwritten in the reader's
		// buffer before the waiter wakes.
		p.expect(wire.MsgTables)
		p.write(cat(
			frame(wire.MsgTablesR, int64(1), "sys_demo", "a table", []any{[]any{"id", "string"}}),
			frame(wire.MsgPong, int64(0)), frame(wire.MsgPong, int64(0)), frame(wire.MsgPong, int64(0)),
		))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != "q-parked" {
		t.Fatalf("session id = %q: the parked Submitted payload was overwritten by the next frame", h.ID)
	}
	rows, done, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Value != int64(i+1) {
			t.Fatalf("row %d = %v", i, r.Value)
		}
	}
	if len(rows) != 4 || done.Rows != 4 || done.Makespan != 5 {
		t.Fatalf("%d rows, done %+v", len(rows), done)
	}
	tabs, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || tabs[0].Name != "sys_demo" || tabs[0].Columns[0] != [2]string{"id", "string"} {
		t.Fatalf("tables = %+v", tabs)
	}
}
