package carrier

import (
	"errors"
	"testing"
	"time"

	"scsq/internal/hw"
	"scsq/internal/vtime"
)

// TestRecycledLinkAbort: NewLink makes a link's abort channel again only for
// a link that was torn, whose Abort closed it. An untorn link keeps its
// channel, and an Abort on its new use still unblocks a Send stalled on flow
// control.
func TestRecycledLinkAbort(t *testing.T) {
	route := Route{
		Kind: "mpi", Src: NodeRef{hw.BlueGene, 1}, Dst: NodeRef{hw.BlueGene, 0},
		Stages: []vtime.Stage{{Resource: vtime.NewResource("wire"), Service: func(int) vtime.Duration { return 1 }}},
	}
	frame := func() Frame { return Frame{Source: "q1/rp-bg-1", Payload: make([]byte, 8)} }

	t.Run("torn", func(t *testing.T) {
		l := NewLink(new(Link), route, make(Inbox, 1), nil, nil)
		old := l.abort
		l.Abort()
		NewLink(l, route, make(Inbox, 1), nil, nil)
		if l.abort == old {
			t.Fatal("a recycled torn link kept the abort channel its Abort closed")
		}
		select {
		case <-l.abort:
			t.Fatal("a recycled torn link's abort channel is closed")
		default:
		}
		if _, err := l.Send(frame()); err != nil {
			t.Fatalf("a recycled torn link fails its first Send: %v", err)
		}
	})

	t.Run("untorn", func(t *testing.T) {
		l := NewLink(new(Link), route, make(Inbox, 1), nil, nil)
		old := l.abort
		inbox := make(Inbox, 1)
		NewLink(l, route, inbox, nil, nil)
		if l.abort != old {
			t.Fatal("a recycled untorn link made a new abort channel")
		}
		if _, err := l.Send(frame()); err != nil { // fills the inbox
			t.Fatal(err)
		}
		stalled := make(chan error, 1)
		go func() {
			_, err := l.Send(frame())
			stalled <- err
		}()
		select {
		case err := <-stalled:
			t.Fatalf("Send into a full inbox returned %v instead of stalling", err)
		case <-time.After(20 * time.Millisecond):
		}
		l.Abort()
		select {
		case err := <-stalled:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("aborted Send returned %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Abort did not unblock a Send stalled on flow control")
		}
		if len(inbox) != 1 {
			t.Fatalf("inbox holds %d frames, want the first only", len(inbox))
		}
	})
}
