// Package marshal implements the binary wire format SCSQ running processes
// use to ship stream objects between each other (paper §2.3: outgoing
// objects are marshaled into send buffers; incoming buffers are de-marshaled
// — materialized — into objects).
//
// The format is a compact tagged encoding:
//
//	value   := tag payload
//	tag     := one byte (see the Tag* constants)
//	int     := varint-free fixed 8-byte little-endian two's complement
//	float   := IEEE-754 bits, 8-byte little-endian
//	string  := u32 length + bytes
//	array   := u32 element count + raw float64 bits
//	bag     := u32 element count + values
//	null    := (no payload)
//	bool    := one byte, 0 or 1
//
// Numerical arrays — the dominant payload in the paper's experiments — are
// encoded as raw IEEE-754 bits so marshaling cost is a single copy: on
// little-endian hosts the encoder and decoder move the raw bits with one
// bulk copy instead of a per-element load/store loop. DecodeInto goes one
// step further and moves a top-level array into storage the caller reuses;
// CopyArray does the same for a sender, cutting any window of an array's
// encoding straight into a frame. NewArray removes even that copy for an
// array that is never written: it lays the array out behind its own header,
// so the array's storage is its encoding and a frame can borrow any window of
// it. Skip is the decoder of a consumer that reads no value (count()): it
// checks a value as Decode would and moves nothing. Boxes.Decode is Decode
// for a caller that materializes many scalars: their interface boxes share
// write-once slabs instead of taking a heap object each.
package marshal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Value tags of the wire format.
const (
	TagNull   byte = 1
	TagInt    byte = 2
	TagFloat  byte = 3
	TagString byte = 4
	TagArray  byte = 5
	TagBag    byte = 6
	TagBool   byte = 7
)

// Errors returned by the codec.
var (
	ErrTruncated  = errors.New("marshal: truncated value")
	ErrUnknownTag = errors.New("marshal: unknown tag")
	// ErrTooLarge is returned when a string, array or bag has more elements
	// than the wire format's u32 length field can represent; encoding it
	// would silently truncate the count and corrupt the frame.
	ErrTooLarge = errors.New("marshal: value exceeds the u32 element limit of the wire format")
)

// maxElems is the largest element count the u32 length field can carry.
// It is a variable only so tests can lower it: real >4Gi-element values
// would not fit in memory on test machines.
var maxElems int64 = math.MaxUint32

// hostLittleEndian reports whether the host stores multi-byte words
// little-endian, in which case float64 slices can be copied to and from the
// wire format as raw bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64Bytes views a non-empty float64 slice as its raw bytes. Only valid
// on little-endian hosts, where the in-memory layout equals the wire format.
func float64Bytes(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), 8*len(x))
}

// Size returns the encoded size in bytes of v, or an error for an
// unsupported type. Supported types: nil, int64, int, float64, bool,
// string, []float64 and []any (bags of supported values).
func Size(v any) (int, error) {
	switch x := v.(type) {
	case nil:
		return 1, nil
	case int64, int, float64:
		return 9, nil
	case bool:
		return 2, nil
	case string:
		if int64(len(x)) > maxElems {
			return 0, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(x))
		}
		return 5 + len(x), nil
	case []float64:
		if int64(len(x)) > maxElems {
			return 0, fmt.Errorf("%w: array of %d elements", ErrTooLarge, len(x))
		}
		return 5 + 8*len(x), nil
	case []any:
		if int64(len(x)) > maxElems {
			return 0, fmt.Errorf("%w: bag of %d elements", ErrTooLarge, len(x))
		}
		n := 5
		for _, e := range x {
			s, err := Size(e)
			if err != nil {
				return 0, err
			}
			n += s
		}
		return n, nil
	default:
		return 0, fmt.Errorf("marshal: unsupported type %T", v)
	}
}

// Append encodes v onto buf and returns the extended slice.
func Append(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, TagNull), nil
	case int:
		return AppendInt(buf, int64(x)), nil
	case int64:
		return AppendInt(buf, x), nil
	case float64:
		buf = append(buf, TagFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, TagBool, b), nil
	case string:
		return AppendString(buf, x)
	case []float64:
		return AppendArray(buf, x)
	case []any:
		var err error
		if buf, err = AppendBagHeader(buf, len(x)); err != nil {
			return nil, err
		}
		for _, e := range x {
			if buf, err = Append(buf, e); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("marshal: unsupported type %T", v)
	}
}

// AppendArray encodes a numerical array onto buf. On little-endian hosts the
// element bits are moved with a single bulk copy — the zero-copy fast path
// of the paper's dominant payload.
func AppendArray(buf []byte, x []float64) ([]byte, error) {
	if int64(len(x)) > maxElems {
		return nil, fmt.Errorf("%w: array of %d elements", ErrTooLarge, len(x))
	}
	buf = append(buf, TagArray)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
	if len(x) == 0 {
		return buf, nil
	}
	if hostLittleEndian {
		return append(buf, float64Bytes(x)...), nil
	}
	for _, f := range x {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf, nil
}

// NewArray allocates an array of n elements laid out behind its own wire
// header, so its encoding needs no copy: arr is the array and enc, on
// little-endian hosts, is what AppendArray(nil, arr) would produce, read in
// place — it aliases arr and reads whatever arr holds. The 5-byte header
// fills bytes 3–7 of one float64 ahead of arr[0], which keeps arr 8-byte
// aligned. enc is nil on big-endian hosts, where the element bits are not
// their wire bytes, and for an n the u32 count cannot carry.
func NewArray(n int) (arr []float64, enc []byte) {
	backing := make([]float64, n+1)
	if !hostLittleEndian || int64(n) > maxElems {
		return backing[1:], nil
	}
	b := float64Bytes(backing)
	b[3] = TagArray
	binary.LittleEndian.PutUint32(b[4:8], uint32(n))
	return backing[1:], b[3:]
}

// CopyArray copies bytes [off, off+len(dst)) of x's encoding — what
// AppendArray(nil, x) would produce — into dst and returns how many it
// copied, fewer than len(dst) only where the encoding ends. It lets a sender
// cut an array into frames straight from the array, without staging the
// whole encoding first. The caller has checked len(x) with Size.
func CopyArray(dst []byte, x []float64, off int) int {
	n := 0
	if off < 5 {
		hdr := [5]byte{TagArray}
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(x)))
		n = copy(dst, hdr[off:])
		off += n
	}
	off -= 5 // now an offset into the element bits
	if off < 0 || off >= 8*len(x) {
		return n
	}
	if hostLittleEndian {
		return n + copy(dst[n:], float64Bytes(x)[off:])
	}
	for ; n < len(dst) && off < 8*len(x); off++ {
		dst[n] = byte(math.Float64bits(x[off/8]) >> (8 * (off % 8)))
		n++
	}
	return n
}

// AppendBagHeader opens a bag of n elements on buf: the tag and the element
// count, after which the caller appends exactly n values. It lets an encoder
// that already knows a bag's shape (a protocol message, a catalog tuple)
// write it in place instead of building a []any for Append.
func AppendBagHeader(buf []byte, n int) ([]byte, error) {
	if int64(n) > maxElems {
		return nil, fmt.Errorf("%w: bag of %d elements", ErrTooLarge, n)
	}
	buf = append(buf, TagBag)
	return binary.LittleEndian.AppendUint32(buf, uint32(n)), nil
}

// AppendInt encodes an integer onto buf. Like AppendString and AppendArray
// it is Append for a value whose type the caller knows, without the
// interface conversion.
func AppendInt(buf []byte, x int64) []byte {
	buf = append(buf, TagInt)
	return binary.LittleEndian.AppendUint64(buf, uint64(x))
}

// AppendString encodes a string onto buf.
func AppendString(buf []byte, x string) ([]byte, error) {
	if int64(len(x)) > maxElems {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(x))
	}
	buf = append(buf, TagString)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
	return append(buf, x...), nil
}

// Decode decodes one value from the front of buf, returning the value and
// the number of bytes consumed. Decoded values never alias buf.
//
// It checks the whole value with Skip before it materializes anything: a
// bag's count sizes its slice, so without the check a short input of nested
// bags that each claim 2³¹ elements costs its length squared in allocations
// before the truncation is found.
func Decode(buf []byte) (any, int, error) {
	return (*Boxes)(nil).Decode(buf)
}

// DecodeInto decodes like Decode, except that a top-level array is copied
// into *arr instead of a fresh slice: *arr is replaced by one of exactly the
// value's length when it is nil or too short, and otherwise keeps its
// capacity. The returned array is valid until the caller next passes arr;
// it never aliases buf. Every other value is materialized by Decode.
func DecodeInto(buf []byte, arr *[]float64) (any, int, error) {
	if len(buf) == 0 || buf[0] != TagArray {
		return Decode(buf)
	}
	size, err := Skip(buf)
	if err != nil {
		return nil, 0, err
	}
	if n := (size - 5) / 8; *arr == nil || cap(*arr) < n {
		*arr = make([]float64, n)
	} else {
		*arr = (*arr)[:n]
	}
	fillArray(*arr, buf[5:size])
	return *arr, size, nil
}

// materialize decodes the checked value at the front of buf, boxing its
// integers and floats with b (nil: as any(v) does).
func materialize(buf []byte, b *Boxes) (any, int, error) {
	if len(buf) == 0 {
		return nil, 0, ErrTruncated
	}
	switch buf[0] {
	case TagNull:
		return nil, 1, nil
	case TagInt:
		if len(buf) < 9 {
			return nil, 0, ErrTruncated
		}
		return b.Int(int64(binary.LittleEndian.Uint64(buf[1:9])), 0), 9, nil
	case TagFloat:
		if len(buf) < 9 {
			return nil, 0, ErrTruncated
		}
		return b.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))), 9, nil
	case TagBool:
		if len(buf) < 2 {
			return nil, 0, ErrTruncated
		}
		return buf[1] != 0, 2, nil
	case TagString:
		if len(buf) < 5 {
			return nil, 0, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return nil, 0, ErrTruncated
		}
		return string(buf[5 : 5+n]), 5 + n, nil
	case TagArray:
		if len(buf) < 5 {
			return nil, 0, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(buf[1:5]))
		if len(buf) < 5+8*n {
			return nil, 0, ErrTruncated
		}
		arr := make([]float64, n)
		fillArray(arr, buf[5:5+8*n])
		return arr, 5 + 8*n, nil
	case TagBag:
		if len(buf) < 5 {
			return nil, 0, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(buf[1:5]))
		off := 5
		// Cap the initial allocation by what the buffer could possibly
		// hold (every element is at least one byte): a crafted length
		// prefix must not force a giant allocation before the element
		// bytes are checked.
		capHint := n
		if rest := len(buf) - 5; capHint > rest {
			capHint = rest
		}
		bag := make([]any, 0, capHint)
		for i := 0; i < n; i++ {
			v, used, err := materialize(buf[off:], b)
			if err != nil {
				return nil, 0, err
			}
			bag = append(bag, v)
			off += used
		}
		return bag, off, nil
	default:
		return nil, 0, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, buf[0])
	}
}

// Skip checks one encoded value at the front of buf without materializing
// it and returns the number of bytes it occupies. It accepts exactly the
// inputs Decode accepts and consumes the same bytes, so a caller can step
// over a value it does not need at no allocation.
func Skip(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, ErrTruncated
	}
	n := 0
	switch buf[0] {
	case TagNull:
		return 1, nil
	case TagInt, TagFloat:
		n = 9
	case TagBool:
		n = 2
	case TagString, TagArray, TagBag:
		if len(buf) < 5 {
			return 0, ErrTruncated
		}
		count := int(binary.LittleEndian.Uint32(buf[1:5]))
		switch buf[0] {
		case TagString:
			n = 5 + count
		case TagArray:
			n = 5 + 8*count
		default:
			off := 5
			for i := 0; i < count; i++ {
				used, err := Skip(buf[off:])
				if err != nil {
					return 0, err
				}
				off += used
			}
			return off, nil
		}
	default:
		return 0, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, buf[0])
	}
	if len(buf) < n {
		return 0, ErrTruncated
	}
	return n, nil
}

// BagHeader, AsInt and AsString are the reading halves of AppendBagHeader,
// AppendInt and AppendString: with Skip they let a decoder that knows a
// message's shape walk it field by field and materialize only the fields it
// wants. Each reports ok = false, and nothing else, when the value at the
// front of buf is of another type or cut short.

// BagHeader returns the element count of the bag at the front of buf and
// the offset of its first element.
func BagHeader(buf []byte) (n, off int, ok bool) {
	if len(buf) < 5 || buf[0] != TagBag {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(buf[1:5])), 5, true
}

// AsInt returns the integer at the front of buf.
func AsInt(buf []byte) (x int64, ok bool) {
	if len(buf) < 9 || buf[0] != TagInt {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(buf[1:9])), true
}

// AsString returns a copy of the string at the front of buf.
func AsString(buf []byte) (s string, ok bool) {
	if len(buf) < 5 || buf[0] != TagString {
		return "", false
	}
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	if len(buf) < 5+n {
		return "", false
	}
	return string(buf[5 : 5+n]), true
}

// fillArray copies len(dst) float64 elements out of their raw little-endian
// wire bytes.
func fillArray(dst []float64, raw []byte) {
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(float64Bytes(dst), raw)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
