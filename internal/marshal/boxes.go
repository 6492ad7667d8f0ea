package marshal

import (
	"encoding/binary"
	"math"
	"sync"
	"unsafe"
)

// A slab holds at most slabWords words (2 KiB: all a kept value can pin).
// Unless told how many values follow, a Boxes' first slab holds
// firstSlabWords and each next one doubles, so one value costs 32 B.
const (
	slabWords      = 256
	firstSlabWords = 4
)

// Boxes hands out int64 and float64 values as interfaces without a heap
// object per value: each is written once into the next free word of a
// shared slab, and the interface's data word points at it — what the
// compiler's box would hold, so ==, maps, type switches, reflect and fmt
// see the same int64 or float64. A published word is never written again:
// a slab only fills up, and a full one is replaced, never resliced. Values
// from 0 to 255 keep the runtime's static boxes; a nil *Boxes boxes as
// any(v) does. A Boxes is not safe for concurrent use; what it returns may
// be read anywhere.
type Boxes struct {
	_    [0]sync.Mutex // go vet rejects a copy: both would fill one slab
	slab []uint64
}

// Int returns v as an any. left, unless 0, says how many values the caller
// still has to box, v included: a slab opened for v holds no more words
// than that.
func (b *Boxes) Int(v int64, left uint64) any {
	if b == nil || uint64(v) < 256 {
		return v
	}
	return b.box(int64(0), uint64(v), left)
}

// Float returns v as an any.
func (b *Boxes) Float(v float64) any {
	bits := math.Float64bits(v)
	if b == nil || bits < 256 {
		return v
	}
	return b.box(float64(0), bits, 0)
}

// Decode is Decode with every int64 and float64 boxed by b.
func (b *Boxes) Decode(buf []byte) (any, int, error) {
	if _, err := Skip(buf); err != nil {
		return nil, 0, err
	}
	return materialize(buf, b)
}

// box writes bits into the next free slab word and returns it through Word.
func (b *Boxes) box(like any, bits, left uint64) any {
	if len(b.slab) == cap(b.slab) {
		n := firstSlabWords
		switch {
		case left > 0:
			n = int(min(left, slabWords))
		case cap(b.slab) > 0:
			n = min(2*cap(b.slab), slabWords)
		}
		b.slab = make([]uint64, 0, n)
	}
	b.slab = append(b.slab, bits)
	return Word(like, &b.slab[len(b.slab)-1])
}

// Word returns like, an int64 or float64, as an interface whose data word is
// w (the eface layout, {type, data}): it reads *w, and keeps w's storage alive.
func Word(like any, w *uint64) any {
	e := (*[2]unsafe.Pointer)(unsafe.Pointer(&like))
	e[1] = unsafe.Pointer(w)
	return like
}

// Loan lends a consumer that copies each value before the next (sqep.Borrowed)
// one word and one array, which each call overwrites: an int64 or float64
// from 256 up reads through Word (a smaller one keeps its static box), and a
// top-level array lands in Arr, the caller's lease, replaced if too short.
type Loan struct {
	_    [0]sync.Mutex // go vet rejects a copy: it would lend another word
	word uint64
	Arr  []float64
}

// Int returns v as an any valid until the loan's next call.
func (l *Loan) Int(v int64) any {
	if uint64(v) < 256 {
		return v
	}
	l.word = uint64(v)
	return Word(int64(0), &l.word)
}

// Decode is Decode with the value's scalar or top-level array lent.
func (l *Loan) Decode(buf []byte) (any, int, error) {
	size, err := Skip(buf)
	switch {
	case err != nil:
		return nil, 0, err
	case buf[0] == TagInt:
		return l.Int(int64(binary.LittleEndian.Uint64(buf[1:9]))), size, nil
	case buf[0] == TagFloat && binary.LittleEndian.Uint64(buf[1:9]) >= 256:
		l.word = binary.LittleEndian.Uint64(buf[1:9])
		return Word(float64(0), &l.word), size, nil
	case buf[0] == TagArray:
		if cap(l.Arr) < (size-5)/8 {
			l.Arr = make([]float64, (size-5)/8)
		}
		l.Arr = l.Arr[:(size-5)/8]
		fillArray(l.Arr, buf[5:size])
		return l.Arr, size, nil
	}
	return materialize(buf, nil)
}
