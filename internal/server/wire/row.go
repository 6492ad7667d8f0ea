package wire

import (
	"fmt"

	"scsq/internal/catalog"
	"scsq/internal/marshal"
)

// Result rows are nearly all of a serving connection's traffic. They take
// the typed codec every message takes, Encoder and Cursor, plus the value:
// AppendRow writes the bytes AppendFrame(MsgRow, EncodeBag(tag, at, src,
// WireValue(v))) would, RowDecoder.DecodeRow reads them as DecodeBag would,
// and neither builds an intermediate value.

// AppendRow encodes one MsgRow frame — length prefix, type byte and the
// positional bag [tag, at_ns, source, value] — onto buf and returns the
// extended slice. value is an engine result value, lowered as WireValue
// lowers it, in place. On error (a value the u32 length fields cannot
// carry) buf is returned at its old length; src is a process name, and one
// that long panics, as Encoder.Str does.
func AppendRow(buf []byte, tag, atNs int64, src string, value any) ([]byte, error) {
	e := Begin(buf, MsgRow)
	e.Int(tag).Int(atNs).Str(src)
	var err error
	if e.buf, err = appendValue(e.buf, value); err != nil {
		return buf, err
	}
	e.n++
	return e.End(), nil
}

// appendValue is marshal.Append(buf, WireValue(v)) without the lowered copy.
func appendValue(buf []byte, v any) ([]byte, error) {
	var elems []any
	switch x := v.(type) {
	case nil, bool, int64, float64, string, int, []float64:
		return marshal.Append(buf, v)
	case catalog.Tuple:
		elems = x.Vals
	case []any:
		elems = x
	default:
		return marshal.AppendString(buf, fmt.Sprintf("%v", x))
	}
	buf, err := marshal.AppendBagHeader(buf, len(elems))
	if err != nil {
		return nil, err
	}
	for _, e := range elems {
		if buf, err = appendValue(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Row is the decoded body of a MsgRow frame.
type Row struct {
	Tag    int64
	AtNs   int64
	Source string
	Value  any
}

// RowDecoder decodes the MsgRow frames of one connection. It boxes their
// integers and floats into its slabs, and a row from the same source as the
// row before shares that row's Source string instead of copying it. A
// RowDecoder is not safe for concurrent use and must not be copied.
type RowDecoder struct {
	boxes  marshal.Boxes
	source string // the last row's Source
}

// DecodeRow decodes a MsgRow payload, materializing only what a Row holds.
// It rejects what DecodeBag(payload, 4) rejects — a malformed or short bag,
// trailing bytes; trailing fields are checked and ignored — and a tag that
// is not an integer. An at_ns or source of another type reads as zero, as a
// field a newer peer redefined would.
func (d *RowDecoder) DecodeRow(payload []byte) (Row, error) {
	c := Fields(payload, 4)
	row := Row{Tag: c.Int()}
	row.AtNs, _ = marshal.AsInt(c.next(0))
	src := c.next(0)
	if c.i < c.n { // the value, checked and materialized in one pass
		v, used, err := d.boxes.Decode(c.p[c.off:])
		if err != nil {
			return Row{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		row.Value, c.off, c.i = v, c.off+used, c.i+1
	}
	if err := c.Err(); err != nil {
		return Row{}, err
	}
	// Comparing the bytes as a string allocates nothing.
	if src[0] != marshal.TagString || string(src[5:]) != d.source {
		d.source, _ = marshal.AsString(src)
	}
	row.Source = d.source
	return row, nil
}
