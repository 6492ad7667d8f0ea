package client

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"scsq/internal/sched"
	"scsq/internal/server/wire"
)

// TestClientOutboundGolden pins the client's wire format the way
// TestOutboundByteStreamGolden pins the server's: over a raw listener, every
// frame the client writes — Hello, Submits with tags above 255, Cancel by
// tag and by id, Goodbye — equals, byte for byte, the frame the
// generic codec (mustBag, AppendFrame) builds from the same fields.
func TestClientOutboundGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const token = "sesame/ü"
	stmts := []string{
		`select i from integer i where i in iota(1,3);`,
		strings.Repeat(`select 1; `, 40), // longer than 255 bytes
	}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(20 * time.Second))
		r := wire.NewReader(nc, 0)
		expect := func(what string, want []byte) wire.Frame {
			f, err := r.Next()
			if err != nil {
				t.Errorf("%s: %v", what, err)
				return wire.Frame{}
			}
			if got := wire.AppendFrame(nil, f.Type, f.Payload); !bytes.Equal(got, want) {
				t.Errorf("%s: the client wrote\n %x\nwant %x", what, got, want)
			}
			return f
		}
		reply := func(typ byte, fields ...any) { nc.Write(wire.AppendFrame(nil, typ, mustBag(fields...))) }

		expect("hello", wire.AppendFrame(nil, wire.MsgHello, mustBag(int64(wire.ProtoVersion), token)))
		reply(wire.MsgAccepted, int64(wire.ProtoVersion), "raw/1", "c1")
		expect("submit 300", wire.AppendFrame(nil, wire.MsgSubmit, mustBag(int64(300), stmts[0], int64(7))))
		reply(wire.MsgSubmitted, int64(300), "q1")
		expect("submit 301", wire.AppendFrame(nil, wire.MsgSubmit, mustBag(int64(301), stmts[1], int64(-3))))
		reply(wire.MsgSubmitted, int64(301), "q2")
		expect("cancel by tag", wire.AppendFrame(nil, wire.MsgCancel, mustBag(int64(300), "")))
		reply(wire.MsgOK, int64(300))
		expect("cancel by id", wire.AppendFrame(nil, wire.MsgCancel, mustBag(int64(-1), "q2")))
		reply(wire.MsgOK, int64(-1))
		expect("goodbye", wire.AppendFrame(nil, wire.MsgGoodbye, mustBag()))
		if _, err := r.Next(); err == nil {
			t.Errorf("the client wrote past its Goodbye")
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{Token: token})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.tagSeq = 299 // past the integers the runtime boxes without allocating
	c.mu.Unlock()
	h, err := c.Submit(stmts[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(stmts[1], -3); err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := c.CancelID("q2"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-peerDone
}

// TestFinalStatesAreTheSchedulers: a Done record's state reads as one of
// finalStates without a copy, so they must be what the scheduler's final
// states print.
func TestFinalStatesAreTheSchedulers(t *testing.T) {
	for s := sched.Queued; s <= sched.Cancelled; s++ {
		if s.Final() != slices.Contains(finalStates, s.String()) {
			t.Errorf("state %q: final %v, but finalStates %v", s, s.Final(), finalStates)
		}
	}
}
