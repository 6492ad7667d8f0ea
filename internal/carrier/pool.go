package carrier

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Frame-buffer pool shared by the sender drivers (internal/rp) and the
// carriers. The engine's hot path ships every payload byte through exactly
// one frame buffer: the sender driver copies marshaled bytes out of its
// pending buffer — from a read cursor, so a flush costs its frame and not the
// unflushed tail behind it — into a pooled payload, the carrier delivers the
// frame, and the receiver driver returns the payload to the pool once its
// last value has been decoded (or at once, when the bytes continue a partial
// object in the reassembly buffer). Pooling turns the per-flush make([]byte, BufBytes) —
// ~30k allocations per paper-scale experiment point — into a recycled
// buffer, which is the "allocation-free byte path" of the data plane.
//
// Buffers are segregated into power-of-two size classes. Each class keeps a
// bounded free list, so pool retention never exceeds a small multiple of
// the experiment's peak in-flight frame count.

const (
	// poolMaxClass is the largest pooled class: 1<<22 = 4 MiB, comfortably
	// above the paper's 3 MB arrays and 1 MB maximum MPI buffer sweep.
	poolMaxClass = 22
	// poolClassCap bounds the free list of each class.
	poolClassCap = 32
)

var bufClasses [poolMaxClass + 1]bufClass

type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

// GetBuf returns a byte buffer of length n, reusing a pooled buffer when
// one is available. GetBuf(0) returns nil. The buffer's contents are
// unspecified; callers overwrite all n bytes.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := ceilClass(n)
	if c > poolMaxClass {
		return make([]byte, n)
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer obtained from GetBuf (or any other buffer the
// caller owns exclusively) to the pool. The caller must not use b after.
// Returning the same buffer twice panics at the second Put — a double
// recycle would hand one buffer to two future frames and corrupt whichever
// one flushes second, far from the actual fault site.
func PutBuf(b []byte) {
	c := floorClass(cap(b))
	if c < 0 {
		return
	}
	if c > poolMaxClass {
		c = poolMaxClass
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if len(cl.free) < poolClassCap {
		data := unsafe.SliceData(b[:cap(b)])
		for _, old := range cl.free {
			if unsafe.SliceData(old[:cap(old)]) == data {
				cl.mu.Unlock()
				panic("carrier: double recycle of pooled frame buffer")
			}
		}
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}

// Recycle returns f's payload to the pool if the frame was marked as
// carrying a pooled buffer, then poisons the frame: Payload is nilled and
// Pooled cleared, so the recycled bytes cannot be read (or re-recycled)
// through this frame again. Receiver drivers call it once a delivered
// frame's bytes have been consumed; carriers call it for frames that will
// never reach a receiver (e.g. dropped UDP datagrams).
func Recycle(f *Frame) {
	if f == nil || !f.Pooled {
		return
	}
	if f.Payload != nil {
		PutBuf(f.Payload)
	}
	f.Payload = nil
	f.Pooled = false
}

// ceilClass returns the smallest class c with 1<<c >= n (n > 0).
func ceilClass(n int) int {
	return bits.Len(uint(n - 1))
}

// floorClass returns the largest class c with 1<<c <= n, or -1 for n == 0.
func floorClass(n int) int {
	return bits.Len(uint(n)) - 1
}
