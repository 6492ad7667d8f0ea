package server

import (
	"testing"

	"scsq/internal/server/wire"
)

// TestChunkOwnershipAndBounds pins the hand-off rules of outbound chunks
// that no byte on the wire shows: a hand-off to a dead connection gives the
// buffer back instead of leaking it from the pool's rotation, and a buffer
// one large row grew is not kept.
func TestChunkOwnershipAndBounds(t *testing.T) {
	c := &conn{out: make(chan *chunk), dead: make(chan struct{})}
	close(c.dead)
	ch := getChunk()
	ch.buf, _ = wire.AppendRow(ch.buf, 1, 0, "", int64(7))
	ch.frames, ch.rows = 1, 1
	if c.sendChunk(ch) {
		t.Fatal("sendChunk reported a hand-off to a dead connection with an unbuffered queue")
	}
	if len(ch.buf) != 0 || ch.frames != 0 || ch.rows != 0 || cap(ch.buf) == 0 {
		t.Fatalf("chunk after the failed hand-off: %d bytes, %d frames, %d rows, cap %d; want it reset for reuse",
			len(ch.buf), ch.frames, ch.rows, cap(ch.buf))
	}

	big := getChunk()
	big.buf, _ = wire.AppendRow(big.buf, 1, 0, "", make([]float64, 300_000/8))
	if cap(big.buf) <= maxPooledChunk {
		t.Fatalf("a 300 kB row fits a %d-byte buffer", cap(big.buf))
	}
	putChunk(big)
	for i := 0; i < 8; i++ {
		if got := getChunk(); cap(got.buf) > maxPooledChunk {
			t.Fatalf("the pool handed out a %d-byte buffer, want none above %d", cap(got.buf), maxPooledChunk)
		}
	}
}
