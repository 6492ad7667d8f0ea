package rp

import (
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/marshal"
	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// TestReceiverBatchMatchesSerial feeds the same stream through a per-frame
// receiver and a batch-committing one: the decoded elements' virtual
// timestamps and the CPU's schedule must be bit-identical, whether the whole
// stream is sitting in the inbox (maximal batches) or trickles in one frame
// per Next (batches of one).
func TestReceiverBatchMatchesSerial(t *testing.T) {
	send := func(inbox carrier.Inbox, viaTCP bool) {
		conn := &loopConn{inbox: inbox, perByte: 2, viaTCP: viaTCP}
		d, err := newSenderDriver("q7.rp1", conn, SenderConfig{
			BufBytes: 64, Mode: carrier.SingleBuffered, MarshalPerByte: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			arr := make([]float64, 5+i%7)
			if err := d.push(sqep.Element{Value: arr, At: vtime.Time(i * 10)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(batch int, viaTCP bool) ([]sqep.Element, vtime.Duration, vtime.Time) {
		inbox := make(carrier.Inbox, 256)
		send(inbox, viaTCP) // loopConn delivers synchronously: all frames queued
		cpu := vtime.NewResource("cpu")
		r := NewReceiver(inbox, ReceiverConfig{
			Producers: 1, MPIPerByte: 1.5, TCPPerByte: 2.5,
			MergeSwitchCost: 30, CPU: cpu, BatchFrames: batch,
			Consumer: "q7.rp2",
		})
		var els []sqep.Element
		for {
			el, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			els = append(els, el)
		}
		return els, cpu.BusyTime(), cpu.FreeAt()
	}
	for _, viaTCP := range []bool{false, true} {
		serialEls, serialBusy, serialFree := run(0, viaTCP)
		for _, batch := range []int{1, 3, 8, 256} {
			els, busy, free := run(batch, viaTCP)
			if len(els) != len(serialEls) {
				t.Fatalf("batch=%d tcp=%v: %d elements, want %d", batch, viaTCP, len(els), len(serialEls))
			}
			for i := range els {
				if els[i].At != serialEls[i].At {
					t.Fatalf("batch=%d tcp=%v: element %d at %v, serial at %v",
						batch, viaTCP, i, els[i].At, serialEls[i].At)
				}
			}
			if busy != serialBusy || free != serialFree {
				t.Fatalf("batch=%d tcp=%v: cpu busy/free %v/%v, serial %v/%v",
					batch, viaTCP, busy, free, serialBusy, serialFree)
			}
		}
	}
}

// TestReceiverBatchAllocatesNothing: draining a batch of 16 pooled frames,
// submitting their de-marshal requests as one chain and decoding them
// allocates nothing per frame on a warm pool.
func TestReceiverBatchAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const batch = 16
	enc, err := marshal.Append(nil, int64(7)) // a small int boxes without allocating
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(carrier.Inbox, batch)
	r := NewReceiver(inbox, ReceiverConfig{
		Producers: 1, MPIPerByte: 1.5, CPU: vtime.NewResource("cpu"),
		TrackOffsets: true, BatchFrames: batch, Consumer: "q1/rp-bg-0",
	})
	var off uint64
	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			payload := carrier.GetBuf(len(enc))
			copy(payload, enc)
			inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "q1/rp-bg-1", Payload: payload, Pooled: true, Offset: off}}
			off += uint64(len(enc))
		}
		for i := 0; i < batch; i++ {
			if _, ok, err := r.Next(); !ok || err != nil {
				t.Fatalf("Next: %v, %v", ok, err)
			}
		}
	})
	if perFrame := n / batch; perFrame != 0 {
		t.Errorf("a receiver batch allocates %v times per frame, want 0", perFrame)
	}
}
