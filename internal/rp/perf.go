package rp

import (
	"scsq/internal/carrier"
	"scsq/internal/sqep"
)

// PushElements drives a fresh sender driver with n copies of el over conn
// and terminates the stream. It exists so benchmark/'s rp.push_* and
// rp.recv_* probes can exercise the element → frame → carrier path — an
// array el is cut into pooled payloads straight from its own storage (frames
// borrow a gen_array template's encoding instead), any other value goes
// through marshal.Append and the driver's pending buffer —
// without assembling a full engine; production code wires sender drivers
// through RP.Subscribe. The receivers those probes build retain their
// elements and are never closed: their leases go back at end of stream.
func PushElements(source string, conn carrier.Conn, cfg SenderConfig, el sqep.Element, n int) (frames, bytes int64, err error) {
	d, err := newSenderDriver(source, conn, cfg)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		if err := d.push(el); err != nil {
			return d.framesOut, d.bytesOut, err
		}
	}
	if err := d.finish(); err != nil {
		return d.framesOut, d.bytesOut, err
	}
	return d.framesOut, d.bytesOut, nil
}
