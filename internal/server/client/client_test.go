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
	tag, _ := fields[0].(int64)
	return tag
}

// write sends bytes as one Write — one Read on the client's side.
func (p *peer) write(b []byte) {
	p.t.Helper()
	if _, err := p.nc.Write(b); err != nil {
		p.t.Errorf("peer: write: %v", err)
	}
}

// mustBag is EncodeBag for fields known statically to encode; it panics on
// the programming error of an unencodable field.
func mustBag(fields ...any) []byte {
	b, err := wire.EncodeBag(fields...)
	if err != nil {
		panic(err)
	}
	return b
}

func frame(typ byte, fields ...any) []byte {
	return wire.AppendFrame(nil, typ, mustBag(fields...))
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
	return New(cliEnd, opts)
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
		p.expect(wire.MsgCancel)
		p.write(cat(
			frame(wire.MsgError, int64(-1), "no session q-gone on this connection"),
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
	if err := c.CancelID("q-gone"); err == nil || !strings.Contains(err.Error(), "no session q-gone on this connection") {
		t.Fatalf("cancel error = %v: the parked Error payload was overwritten by the next frames", err)
	}
}

// --- the run hand-off: when the reader gives a session its rows ---

// submitted scripts the opening of n pipelined sessions and returns their
// tags; the test's Submit calls must follow in the same order.
func (p *peer) submitted(n int) []int64 {
	p.t.Helper()
	tags := make([]int64, n)
	for i := range tags {
		tags[i] = p.expectSubmit()
		p.write(frame(wire.MsgSubmitted, tags[i], "q"))
	}
	return tags
}

// recvValues reads n rows off h and returns their integer values.
func recvValues(t *testing.T, h *SessionHandle, n int) []int64 {
	t.Helper()
	vals := make([]int64, 0, n)
	for len(vals) < n {
		r, ok, fin := h.Recv()
		if !ok {
			t.Fatalf("stream ended (%+v) after rows %v, want %d rows", fin, vals, n)
		}
		vals = append(vals, r.Value.(int64))
	}
	return vals
}

func wantValues(t *testing.T, what string, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rows %v, want %v", what, got, want)
		}
	}
}

// queued reports how many rows the reader has handed to h and Recv has not
// yet taken over.
func queued(h *SessionHandle) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// TestRunHandedOverWhenReaderIdles: rows that arrived in one read are the
// consumer's as soon as the reader has nothing more buffered — the peer
// sends nothing further until the consumer has them, so a run that waited
// for a later frame would hang here.
func TestRunHandedOverWhenReaderIdles(t *testing.T) {
	got := make(chan struct{})
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		tag := p.submitted(1)[0]
		p.write(cat(row(tag, 1), row(tag, 2), row(tag, 3)))
		<-got
		p.write(frame(wire.MsgDone, tag, "done", "", int64(0), int64(3)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "stalled stream", recvValues(t, h, 3), 1, 2, 3)
	close(got)
	if _, ok, fin := h.Recv(); ok || fin == nil || fin.Rows != 3 {
		t.Fatalf("after the rows: ok %v, done %+v", ok, fin)
	}
}

// TestRunNotHeldBehindPartialFrame: a read that ends inside a frame — TCP
// cuts the stream where it likes, and frames straddle the reader's buffer
// routinely — still hands over the whole rows in front of it: the peer stalls
// mid-frame until the consumer has them. Cut inside the length prefix and
// inside the body.
func TestRunNotHeldBehindPartialFrame(t *testing.T) {
	for _, cut := range []int{2, 4, 12} {
		got := make(chan struct{})
		c, err := dialPipe(t, Options{}, func(p *peer) {
			p.write(accepted())
			tag := p.submitted(1)[0]
			r3 := row(tag, 3)
			p.write(cat(row(tag, 1), row(tag, 2), r3[:cut]))
			<-got
			p.write(cat(r3[cut:], frame(wire.MsgDone, tag, "done", "", int64(0), int64(3))))
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Submit("select 1;", 0)
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "in front of the partial frame", recvValues(t, h, 2), 1, 2)
		close(got)
		wantValues(t, "the completed frame", recvValues(t, h, 1), 3)
		if _, ok, fin := h.Recv(); ok || fin == nil || fin.Rows != 3 {
			t.Fatalf("cut %d: after the rows: ok %v, done %+v", cut, ok, fin)
		}
		c.Close()
	}
}

// TestRunEndsAtTagSwitch: rows of two pipelined sessions interleaved in one
// read reach the right session in the order sent, and a Done directly behind
// a session's rows never overtakes them.
func TestRunEndsAtTagSwitch(t *testing.T) {
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		tags := p.submitted(2)
		a, b := tags[0], tags[1]
		p.write(cat(
			row(a, 1), row(a, 2), row(b, 10), row(a, 3), row(b, 20), row(b, 30),
			frame(wire.MsgDone, b, "done", "", int64(7), int64(3)),
			row(a, 4),
			frame(wire.MsgDone, a, "done", "", int64(9), int64(4)),
		))
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
	wantValues(t, "session b", recvValues(t, hb, 3), 10, 20, 30)
	if _, ok, fin := hb.Recv(); ok || fin == nil || fin.Makespan != 7 {
		t.Fatalf("session b's end: ok %v, done %+v", ok, fin)
	}
	rows, done, err := ha.Wait()
	if err != nil || done.Rows != 4 || done.Makespan != 9 {
		t.Fatalf("session a: done %+v, err %v", done, err)
	}
	vals := make([]int64, len(rows))
	for i, r := range rows {
		vals[i] = r.Value.(int64)
	}
	wantValues(t, "session a", vals, 1, 2, 3, 4)
}

// TestReaderBlocksAtRecvBuffer is the backpressure contract of a live
// session: the reader queues RecvBuffer rows ahead of the consumer and then
// stops reading the connection — the peer's next write does not complete —
// until Recv makes room. Nothing is dropped or reordered.
func TestReaderBlocksAtRecvBuffer(t *testing.T) {
	const n = 7
	wrote := make(chan struct{})
	c, err := dialPipe(t, Options{RecvBuffer: 2}, func(p *peer) {
		p.write(accepted())
		tag := p.submitted(1)[0]
		var all []byte
		for i := int64(1); i <= n; i++ {
			all = append(all, row(tag, i)...)
		}
		p.write(all) // one read on the client's side: more than three runs
		p.write(frame(wire.MsgDone, tag, "done", "", int64(0), int64(n)))
		close(wrote)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	for queued(h) < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-wrote:
		t.Fatal("the peer's write behind a full queue completed: the reader did not block")
	case <-time.After(50 * time.Millisecond):
	}
	if q := queued(h); q != 2 {
		t.Fatalf("%d rows queued with nobody reading, want RecvBuffer's 2", q)
	}
	vals := recvValues(t, h, 1) // takes the two queued rows over: room again
	for queued(h) < 2 {
		time.Sleep(time.Millisecond)
	}
	if q := queued(h); q != 2 {
		t.Fatalf("%d rows queued after one Recv, want 2", q)
	}
	vals = append(vals, recvValues(t, h, n-1)...)
	wantValues(t, "through a queue of two", vals, 1, 2, 3, 4, 5, 6, 7)
	if _, ok, fin := h.Recv(); ok || fin == nil || fin.Rows != n {
		t.Fatalf("end of stream: ok %v, done %+v", ok, fin)
	}
	<-wrote
}

// TestCancelReleasesBlockedReader: the reader is already waiting on a live
// session's full queue when the session is cancelled. Cancel must free it —
// the rows that do not fit are dropped — or the cancel's own acknowledgement
// could never be read.
func TestCancelReleasesBlockedReader(t *testing.T) {
	c, err := dialPipe(t, Options{RecvBuffer: 1}, func(p *peer) {
		p.write(accepted())
		tag := p.submitted(1)[0]
		p.write(cat(row(tag, 1), row(tag, 2), row(tag, 3)))
		p.expect(wire.MsgCancel)
		p.write(frame(wire.MsgOK, tag))
		p.write(frame(wire.MsgDone, tag, "cancelled", "cancelled by user", int64(0), int64(3)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit("select 1;", 0)
	if err != nil {
		t.Fatal(err)
	}
	for queued(h) < 1 {
		time.Sleep(time.Millisecond)
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	rows, done, err := h.Wait()
	if err != nil || done.State != "cancelled" || len(rows) != 1 || rows[0].Value != int64(1) {
		t.Fatalf("cancelled session: rows %+v, done %+v, err %v; want the one queued row", rows, done, err)
	}
}

// TestPendingRunSurvivesConnectionDeath: the connection dies — torn inside a
// frame, or on a frame the reader refuses — with complete rows of the same
// read in front. They are delivered, then the stream ends without a terminal
// record.
func TestPendingRunSurvivesConnectionDeath(t *testing.T) {
	for name, tail := range map[string][]byte{
		"torn frame":  row(0, 3)[:9],
		"empty frame": {0, 0, 0, 0},
	} {
		c, err := dialPipe(t, Options{}, func(p *peer) {
			p.write(accepted())
			tag := p.submitted(1)[0]
			p.write(cat(row(tag, 1), row(tag, 2), tail))
			p.nc.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Submit("select 1;", 0)
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "before the "+name, recvValues(t, h, 2), 1, 2)
		if r, ok, fin := h.Recv(); ok || fin != nil {
			t.Fatalf("%s: after the connection died: row %+v, ok %v, done %+v", name, r, ok, fin)
		}
		if _, _, err := h.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: Wait err = %v, want ErrClosed", name, err)
		}
	}
}

// TestRowSlicesRecycled: a session's two row slices return to the client at
// the end of its stream — emptied — and the next session takes them, so a
// warm connection allocates no row storage; a session that never sees a row
// takes none.
func TestRowSlicesRecycled(t *testing.T) {
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		for s := 0; s < 3; s++ {
			tag := p.submitted(1)[0]
			// Two reads, so the consumer swaps at least once and the
			// session ends up owning two slices.
			p.write(cat(row(tag, 1), row(tag, 2)))
			p.expect(wire.MsgPing)
			p.write(frame(wire.MsgPong, int64(0)))
			p.write(cat(row(tag, 3), frame(wire.MsgDone, tag, "done", "", int64(0), int64(3))))
		}
		tag := p.submitted(1)[0]
		p.write(frame(wire.MsgDone, tag, "done", "", int64(0), int64(0)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	free := func() [][]Row {
		c.freeMu.Lock()
		defer c.freeMu.Unlock()
		return append([][]Row(nil), c.freeRows...)
	}
	var first [][]Row
	for s := 0; s < 3; s++ {
		h, err := c.Submit("select 1;", 0)
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "first read", recvValues(t, h, 2), 1, 2)
		ping := c.begin(wire.MsgPing) // lets the peer go on
		c.flush(ping.Int(0))
		wantValues(t, "second read", recvValues(t, h, 1), 3)
		if s > 0 && len(free()) != 0 {
			t.Fatalf("session %d: %d slices still free while it holds two", s, len(free()))
		}
		if _, ok, fin := h.Recv(); ok || fin == nil {
			t.Fatalf("session %d did not end", s)
		}
		got := free()
		if len(got) != 2 {
			t.Fatalf("after session %d the client holds %d free slices, want its 2", s, len(got))
		}
		for _, rows := range got {
			for _, r := range rows[:cap(rows)] {
				if r != (Row{}) {
					t.Fatalf("a recycled slice still pins %+v", r)
				}
			}
		}
		if s == 0 {
			first = got
		} else if !(sameArray(got[0], first[0]) || sameArray(got[0], first[1])) ||
			!(sameArray(got[1], first[0]) || sameArray(got[1], first[1])) {
			t.Fatalf("session %d allocated row storage of its own on a warm connection", s)
		}
	}
	h, err := c.Submit("select nothing;", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, fin := h.Recv(); ok || fin == nil {
		t.Fatal("the empty session did not end")
	}
	if len(free()) != 2 || h.cur != nil || queued(h) != 0 || h.pending != nil {
		t.Fatalf("a session without rows took row storage: %d slices free", len(free()))
	}
}

func sameArray(a, b []Row) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestSubmitLeavesNoWaiter: a session's one-shot submit reply is taken once,
// and its session ends with its Done record, so a connection that ran many
// sessions keeps no table entry for any of them.
func TestSubmitLeavesNoWaiter(t *testing.T) {
	const sessions = 5
	c, err := dialPipe(t, Options{}, func(p *peer) {
		p.write(accepted())
		for s := 0; s < sessions; s++ {
			tag := p.submitted(1)[0]
			p.write(cat(row(tag, int64(s)), frame(wire.MsgDone, tag, "done", "", int64(0), int64(1))))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for s := 0; s < sessions; s++ {
		h, err := c.Submit("select 1;", 0)
		if err != nil {
			t.Fatal(err)
		}
		if rows, fin, err := h.Wait(); err != nil || len(rows) != 1 || fin.State != "done" {
			t.Fatalf("session %d: %d rows, %+v, %v", s, len(rows), fin, err)
		}
	}
	c.mu.Lock()
	waiters, open := len(c.cancels), len(c.sessions)
	c.mu.Unlock()
	if waiters != 0 || open != 0 {
		t.Errorf("after %d finished sessions the client holds %d waiters and %d sessions, want none", sessions, waiters, open)
	}
}
