package carrier

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Buffer pools shared by the stream drivers (internal/rp) and the carriers:
// one size-class free list, instantiated for the two kinds of storage whose
// size follows the data — []byte (frame payloads, which the sender driver
// fills and the receiver driver recycles, and the receiver's per-producer
// reassembly buffers) and []float64 (the array a non-retaining consumer's
// receiver decodes into). Everything array-sized on the byte path is leased
// here and goes back when its stream ends, so a warm pool makes a query's
// allocation a function of its plan, not of the bytes it moves. DESIGN §7 has
// the table of who copies a byte and who owns which buffer.
//
// Buffers are segregated into power-of-two size classes. Each class keeps a
// bounded free list, so pool retention never exceeds a small multiple of
// the experiment's peak in-flight frame count.

const (
	// poolMaxClass is the largest pooled class: 1<<22 = 4 MiB of bytes,
	// comfortably above the paper's 3 MB arrays and 1 MB maximum MPI buffer
	// sweep; floatMaxClass holds the same 4 MiB as float64s.
	poolMaxClass  = 22
	floatMaxClass = poolMaxClass - 3
	// poolClassCap bounds the free list of each class.
	poolClassCap = 32
)

// classPool is a free list of []T per power-of-two capacity class, up to
// 1<<maxClass elements.
type classPool[T any] struct {
	maxClass int
	classes  [poolMaxClass + 1]struct {
		mu   sync.Mutex
		free [][]T
	}
}

var (
	bytePool  = classPool[byte]{maxClass: poolMaxClass}
	floatPool = classPool[float64]{maxClass: floatMaxClass}
)

// get returns a slice of length n and unspecified contents, reusing a pooled
// one when available; n <= 0 yields nil. A slice the pool makes has its
// class's capacity, so a holder that outgrows it moves to the next class.
func (p *classPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := ceilClass(n)
	if c > p.maxClass {
		return make([]T, n)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]T, n, 1<<c)
}

// put files b under the largest class its capacity covers (so a foreign
// slice of any capacity is safe to hand out again) unless that class is
// full. Returning the same storage twice panics at the second put — a double
// return would hand one buffer to two future holders and corrupt whichever
// writes second, far from the actual fault site.
func (p *classPool[T]) put(b []T) {
	c := floorClass(cap(b))
	if c < 0 {
		return
	}
	if c > p.maxClass {
		c = p.maxClass
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.free) < poolClassCap {
		data := unsafe.SliceData(b[:cap(b)])
		for _, old := range cl.free {
			if unsafe.SliceData(old[:cap(old)]) == data {
				cl.mu.Unlock()
				panic("carrier: double return of a pooled buffer")
			}
		}
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}

// GetBuf returns a byte buffer of length n, reusing a pooled buffer when
// one is available. GetBuf(0) returns nil. The buffer's contents are
// unspecified; callers overwrite all n bytes.
func GetBuf(n int) []byte { return bytePool.get(n) }

// PutBuf returns a buffer obtained from GetBuf (or any other buffer the
// caller owns exclusively) to the pool. The caller must not use b after;
// a second PutBuf of the same buffer panics.
func PutBuf(b []byte) { bytePool.put(b) }

// GetFloats and PutFloats are GetBuf and PutBuf for float64 storage.
func GetFloats(n int) []float64 { return floatPool.get(n) }

// PutFloats returns an array obtained from GetFloats to the pool.
func PutFloats(a []float64) { floatPool.put(a) }

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
