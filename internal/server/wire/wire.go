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
// marshal bags ([]any) whose fields are positional; unknown trailing fields
// are ignored, which is how the protocol grows without a version bump.
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
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, typ, payload))
	return err
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
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
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

// MustBag is EncodeBag for fields known statically to encode; it panics on
// the programming error of an unencodable field.
func MustBag(fields ...any) []byte {
	b, err := EncodeBag(fields...)
	if err != nil {
		panic(fmt.Sprintf("wire: unencodable message fields: %v", err))
	}
	return b
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

// Int extracts field i of a decoded bag as an int64.
func Int(fields []any, i int) (int64, error) {
	x, ok := fields[i].(int64)
	if !ok {
		return 0, fmt.Errorf("%w: field %d is %T, want int", ErrBadPayload, i, fields[i])
	}
	return x, nil
}

// Str extracts field i of a decoded bag as a string.
func Str(fields []any, i int) (string, error) {
	s, ok := fields[i].(string)
	if !ok {
		return "", fmt.Errorf("%w: field %d is %T, want string", ErrBadPayload, i, fields[i])
	}
	return s, nil
}
