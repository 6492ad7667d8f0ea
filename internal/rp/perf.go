package rp

import (
	"scsq/internal/carrier"
	"scsq/internal/sqep"
)

// PushElements drives a fresh sender with n copies of el over conn and
// terminates the stream: the element → frame → carrier path of benchmark/'s
// rp.push_* and rp.recv_* probes, without an engine (which subscribes
// senders through RP.Subscribe). The receivers those probes build retain
// their elements and are never closed: their leases go back at end of stream.
func PushElements(source string, conn carrier.Conn, cfg SenderConfig, el sqep.Element, n int) (frames, bytes int64, err error) {
	d := new(Sender)
	if err = d.init(source, conn, cfg); err != nil {
		return 0, 0, err
	}
	for i := 0; i < n && err == nil; i++ {
		err = d.push(el)
	}
	if err == nil {
		err = d.finish()
	}
	return d.framesOut, d.bytesOut, err
}
