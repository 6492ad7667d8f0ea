// Package wire defines the SCSQL network protocol: the framing, message
// types, and payload encoding spoken between scsq-server and its clients
// (internal/server/client, scsq-shell -connect, the serve load generator).
//
// A frame is
//
//	frame   := u32 LE length, type byte, payload
//	length  := 1 + len(payload)   — everything after the length field
//
// and every payload is one value in the engine's own marshal format
// (internal/marshal): the protocol reuses the codec the simulation ships
// stream objects with, so result values cross the network in the same
// encoding they had inside the simulated BG/L torus. Message payloads are
// marshal bags whose fields are positional, written by an Encoder and read
// by a Cursor in place, with no []any between; unknown trailing fields are
// ignored, which is how the protocol grows without a version bump. The bag
// codec (EncodeBag, DecodeBag) is the reference the typed one is tested by.
//
// The conversation starts with a handshake — client sends Hello carrying
// the protocol version (and an optional auth token), server answers Accepted
// or Error and closes — after which the client pipelines Submit/Cancel/Ping
// freely; the server interleaves per-session Row frames as the simulation
// produces them, tagging every frame with the client-chosen statement tag, so
// responses need no ordering relative to one another. There is no message for
// reading the system catalog: `select sys_tables();` is a statement like any
// other, and its rows are chunked, credited and cancellable like any other's
// (the retired types 0x07, 0x08, 0x47 and 0x48 get the unknown-type error).
package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"scsq/internal/marshal"
)

// ProtoVersion is the protocol generation this package speaks. A server
// rejects a Hello carrying a different version: the framing may be
// compatible, but message semantics are not negotiated field-by-field.
const ProtoVersion = 1

// DefaultMaxFrame bounds the length field of a single frame (8 MiB).
// Result rows larger than this indicate a runaway value, not a bigger
// buffer requirement.
const DefaultMaxFrame = 8 << 20

// Message types. Client→server types sit in 0x01..0x3f, server→client in
// 0x41..0x7f, so a peer can tell at a glance (and in tests) which side a
// captured frame belongs to.
const (
	// MsgHello opens the conversation: [version int, token string].
	MsgHello byte = 0x01
	// MsgSubmit submits one SCSQL statement: [tag int, statement string,
	// priority int]. The tag is chosen by the client and echoed on every
	// frame concerning this session.
	MsgSubmit byte = 0x03
	// MsgCancel cancels a session by tag or by server-side session id:
	// [tag int, id string]. A negative tag means "by id". Both forms are
	// scoped to the issuing connection's own sessions: a client can never
	// cancel another connection's queries.
	MsgCancel byte = 0x04
	// MsgPing elicits a MsgPong: [nonce int].
	MsgPing byte = 0x05
	// MsgGoodbye announces an orderly close: []. The server finishes
	// in-flight writes and closes the connection.
	MsgGoodbye byte = 0x06

	// MsgAccepted answers a valid Hello: [version int, server string,
	// session_prefix string].
	MsgAccepted byte = 0x41
	// MsgRow carries one result element: [tag int, at_ns int,
	// source string, value]. at_ns is the element's virtual timestamp.
	MsgRow byte = 0x42
	// MsgDone closes a session's result stream: [tag int, state string,
	// error string, makespan_ns int, rows int].
	MsgDone byte = 0x43
	// MsgError reports a request-level failure: [tag int, message string].
	// Tag -1 is a connection-level error (handshake, framing).
	MsgError byte = 0x44
	// MsgPong answers a ping: [nonce int].
	MsgPong byte = 0x45
	// MsgOK acknowledges a request with no richer answer (cancel): [tag int].
	MsgOK byte = 0x46
	// MsgDraining tells the client the server is shutting down: [grace_ns
	// int]. In-flight sessions keep streaming; new submits are refused.
	MsgDraining byte = 0x49
	// MsgSubmitted answers MsgSubmit with the server-side session id:
	// [tag int, id string].
	MsgSubmitted byte = 0x4a
)

// Errors of the framing layer.
var (
	// ErrFrameTooLarge reports a length field exceeding the reader's frame
	// cap — the connection is unrecoverable because the stream position of
	// the next frame is unknowable without trusting the oversized length.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrEmptyFrame reports a length field of zero: every frame carries at
	// least the type byte.
	ErrEmptyFrame = errors.New("wire: empty frame (length 0)")
	// ErrBadPayload reports a payload that is not one well-formed marshal
	// bag of the fields the message type requires.
	ErrBadPayload = errors.New("wire: malformed message payload")
	// ErrVersionMismatch reports a Hello carrying the wrong protocol
	// version.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	// ErrNotHello reports a first frame that is not MsgHello — garbage, or
	// a peer speaking some other protocol.
	ErrNotHello = errors.New("wire: connection must open with Hello")
	errNotBag   = fmt.Errorf("%w: payload is not a bag", ErrBadPayload)
)

// Frame is one decoded protocol frame. A frame returned by Reader.Next
// aliases the reader's buffer: Payload is valid until the next call of Next
// on the same reader, and whoever keeps it longer copies it first.
type Frame struct {
	Type    byte
	Payload []byte
}

// AppendFrame encodes one frame onto buf and returns the extended slice.
// payload is the already-marshaled message body.
func AppendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(payload)))
	return append(append(buf, typ), payload...)
}

// maxKeptFrame is the largest frame buffer a Reader keeps between frames.
// A bigger frame (an array row) gets a buffer of its
// own that the next call of Next lets go, so an idle connection pins at
// most this much, not the frame cap.
const maxKeptFrame = 64 << 10

// Reader decodes frames from a byte stream, enforcing the frame cap. It
// reads ahead: the stream must not be read past the Reader.
type Reader struct {
	br  *bufio.Reader
	max uint32
	hdr [4]byte
	buf []byte // the current frame; reused by the next one
}

// NewReader returns a frame reader over r. maxFrame bounds the length
// field; 0 means DefaultMaxFrame.
func NewReader(r io.Reader, maxFrame int) *Reader {
	maxFrame = cmp.Or(max(maxFrame, 0), DefaultMaxFrame)
	return &Reader{br: bufio.NewReader(r), max: uint32(maxFrame)}
}

// Next reads one frame into the reader's buffer, overwriting the previous
// one (see Frame). io.EOF at a frame boundary means the peer closed
// cleanly; a partial frame yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Frame, error) {
	if cap(r.buf) > maxKeptFrame {
		r.buf = nil
	}
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:])
	if n == 0 {
		return Frame{}, ErrEmptyFrame
	}
	if n > r.max {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, r.max)
	}
	if cap(r.buf) < int(n) {
		// Double, so a run of slowly growing frames costs few buffers.
		r.buf = make([]byte, max(int(n), min(2*cap(r.buf), maxKeptFrame)))
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Type: body[0], Payload: body[1:]}, nil
}

// FrameBuffered reports whether a whole frame is already buffered, so that
// Next returns it without reading from the underlying stream. False means the
// next call may block until the peer sends more — a reader that batches what
// it decodes hands its batch on there, so nothing it holds waits for bytes
// not yet sent. A frame longer than the read-ahead buffer is never whole in
// it.
func (r *Reader) FrameBuffered() bool {
	have := r.br.Buffered()
	if have < len(r.hdr) {
		return false
	}
	hdr, _ := r.br.Peek(len(r.hdr))
	return uint64(have-len(r.hdr)) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// EncodeBag marshals fields as one bag payload. Fields must be
// marshal-encodable (see WireValue for arbitrary engine values).
func EncodeBag(fields ...any) ([]byte, error) {
	return marshal.Append(nil, fields)
}

// DecodeBag unmarshals a message payload into its positional fields,
// requiring at least want fields (trailing extras are allowed and ignored:
// a newer peer may append fields).
func DecodeBag(payload []byte, want int) ([]any, error) {
	v, n, err := marshal.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if n != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after message", ErrBadPayload, len(payload)-n)
	}
	fields, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("%w: payload is %T, want bag", ErrBadPayload, v)
	}
	if len(fields) < want {
		return nil, fmt.Errorf("%w: %d fields, want at least %d", ErrBadPayload, len(fields), want)
	}
	return fields, nil
}

// Encoder writes one frame straight into the caller's buffer, the bytes
// AppendFrame(typ, EncodeBag(fields...)) would: Begin opens the frame, Int and
// Str append its fields in order (each returns the Encoder, so they chain),
// End seals it.
type Encoder struct {
	buf []byte
	at  int    // where the frame starts in buf
	n   uint32 // fields appended
}

// Begin opens a frame of type typ on buf: length, type byte and bag header,
// whose length and count End fills in.
func Begin(buf []byte, typ byte) Encoder {
	return Encoder{buf: append(buf, 0, 0, 0, 0, typ, marshal.TagBag, 0, 0, 0, 0), at: len(buf)}
}

// Int appends an integer field.
func (e *Encoder) Int(x int64) *Encoder {
	e.buf, e.n = marshal.AppendInt(e.buf, x), e.n+1
	return e
}

// Str appends a string field. It panics on the programming error of a
// string too long for the format's u32 length field.
func (e *Encoder) Str(s string) *Encoder {
	buf, err := marshal.AppendString(e.buf, s)
	if err != nil {
		panic(fmt.Sprintf("wire: unencodable message field: %v", err))
	}
	e.buf, e.n = buf, e.n+1
	return e
}

// End seals the frame and returns the extended buffer.
func (e *Encoder) End() []byte {
	binary.LittleEndian.PutUint32(e.buf[e.at:], uint32(len(e.buf)-e.at-4))
	binary.LittleEndian.PutUint32(e.buf[e.at+6:], e.n)
	return e.buf
}

// Cursor reads the fields of one message payload in order and in place:
// Fields opens it, Int and Str read its fields, Err ends the reading with
// the verdict DecodeBag(payload, want) and a type check of every field read
// would give. A field of another type, or one past the last, reads as zero;
// the first failure sticks.
type Cursor struct {
	p          []byte
	off        int // the next field
	i, n, want int // fields read, fields in the bag, fields required
	err        error
}

// Fields opens a cursor on the first field of payload.
func Fields(payload []byte, want int) Cursor {
	n, off, ok := marshal.BagHeader(payload)
	if !ok {
		return Cursor{err: errNotBag}
	}
	return Cursor{p: payload, off: off, n: n, want: want}
}

// Err steps over the fields not read and reports the first failure: a
// field read as the wrong type, a malformed field, bytes after the bag, or
// fewer than want fields.
func (c *Cursor) Err() error {
	for c.i < c.n {
		c.next(0)
	}
	if c.off != len(c.p) {
		c.err = cmp.Or(c.err, fmt.Errorf("%w: %d trailing bytes after message", ErrBadPayload, len(c.p)-c.off))
	}
	if c.n < c.want {
		c.err = cmp.Or(c.err, fmt.Errorf("%w: %d fields, want at least %d", ErrBadPayload, c.n, c.want))
	}
	return c.err
}

// next steps over the next field and returns its encoding, or nil — and
// fails — past the last field, at a malformed one or at one not of type tag
// (0: any).
func (c *Cursor) next(tag byte) []byte {
	if c.i == c.n {
		c.err = cmp.Or(c.err, fmt.Errorf("%w: %d fields, read past the last", ErrBadPayload, c.n))
		return nil
	}
	used, err := marshal.Skip(c.p[c.off:])
	if err != nil {
		c.n, c.off = c.i, len(c.p) // nothing past it can be read
		c.err = cmp.Or(c.err, fmt.Errorf("%w: %v", ErrBadPayload, err))
		return nil
	}
	f := c.p[c.off : c.off+used]
	c.off, c.i = c.off+used, c.i+1
	if tag != 0 && f[0] != tag {
		c.err = cmp.Or(c.err, fmt.Errorf("%w: field %d has tag %d, want %d", ErrBadPayload, c.i-1, f[0], tag))
		return nil
	}
	return f
}

// Int reads the next field as an integer.
func (c *Cursor) Int() int64 {
	x, _ := marshal.AsInt(c.next(marshal.TagInt))
	return x
}

// Str reads the next field as a string, a copy of its bytes.
func (c *Cursor) Str() string { return c.Intern(nil) }

// Intern is Str for a field that is usually one of known: a field equal to
// one reads as that string, copying nothing.
func (c *Cursor) Intern(known []string) string {
	f := c.next(marshal.TagString)
	for _, s := range known {
		if f != nil && string(f[5:]) == s {
			return s
		}
	}
	s, _ := marshal.AsString(f)
	return s
}
