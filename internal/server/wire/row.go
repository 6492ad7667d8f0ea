package wire

import (
	"encoding/binary"
	"fmt"

	"scsq/internal/catalog"
	"scsq/internal/marshal"
)

// Result rows are nearly all of a serving connection's traffic, so MsgRow
// has a codec of its own that builds no intermediate values: AppendRow
// writes the bytes AppendFrame(MsgRow, EncodeBag(tag, at, src, WireValue(v)))
// would, RowDecoder.DecodeRow reads them as DecodeBag would. Every other
// message is a control frame and keeps the generic bag path.

// AppendRow encodes one MsgRow frame — length prefix, type byte and the
// positional bag [tag, at_ns, source, value] — onto buf and returns the
// extended slice. value is an engine result value, lowered as WireValue
// lowers it, in place. On error (a value the u32 length fields cannot
// carry) buf is returned at its old length.
func AppendRow(buf []byte, tag, atNs int64, src string, value any) ([]byte, error) {
	frame, err := appendRow(buf, tag, atNs, src, value)
	if err != nil {
		return buf, err
	}
	binary.LittleEndian.PutUint32(frame[len(buf):], uint32(len(frame)-len(buf)-4))
	return frame, nil
}

func appendRow(buf []byte, tag, atNs int64, src string, value any) ([]byte, error) {
	buf = append(buf, 0, 0, 0, 0, MsgRow) // length patched by AppendRow
	buf, err := marshal.AppendBagHeader(buf, 4)
	if err != nil {
		return nil, err
	}
	buf = marshal.AppendInt(buf, tag)
	buf = marshal.AppendInt(buf, atNs)
	if buf, err = marshal.AppendString(buf, src); err != nil {
		return nil, err
	}
	return appendValue(buf, value)
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
	n, off, ok := marshal.BagHeader(payload)
	if !ok {
		return Row{}, fmt.Errorf("%w: payload is not a bag", ErrBadPayload)
	}
	var row Row
	for i := 0; i < n; i++ {
		field := payload[off:]
		var used int
		var err error
		if i == 3 {
			row.Value, used, err = d.boxes.Decode(field)
		} else {
			used, err = marshal.Skip(field)
		}
		if err != nil {
			return Row{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		switch i {
		case 0:
			if row.Tag, ok = marshal.AsInt(field); !ok {
				return Row{}, fmt.Errorf("%w: tag field is not an int", ErrBadPayload)
			}
		case 1:
			row.AtNs, _ = marshal.AsInt(field)
		case 2:
			// Comparing the bytes as a string allocates nothing.
			if field[0] != marshal.TagString || string(field[5:used]) != d.source {
				d.source, _ = marshal.AsString(field)
			}
			row.Source = d.source
		}
		off += used
	}
	if off != len(payload) {
		return Row{}, fmt.Errorf("%w: %d trailing bytes after message", ErrBadPayload, len(payload)-off)
	}
	if n < 4 {
		return Row{}, fmt.Errorf("%w: %d fields, want at least 4", ErrBadPayload, n)
	}
	return row, nil
}
