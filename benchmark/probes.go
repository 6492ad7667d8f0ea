package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/cndb"
	"scsq/internal/coord"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/mpicar"
	"scsq/internal/place"
	"scsq/internal/rp"
	"scsq/internal/server/wire"
	"scsq/internal/sqep"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// Probes call one layer directly, many times, with the element and frame
// sizes of the workload being traced, and report wall ns and allocations
// per call. They say what a layer costs alone; the spans say what it costs
// inside an op.

// probeCalls is how many calls a probe makes at scale 1; probes whose calls
// move large frames make fewer (probeBytes in total).
const (
	probeCalls = 10_000
	probeBytes = 512 << 20
)

// stopwatch accumulates wall time and allocations over the timed sections
// of a probe, so set-up between sections is not charged.
type stopwatch struct {
	wall    time.Duration
	mallocs uint64
	t0      time.Time
	m0      uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (s *stopwatch) start() { s.m0, s.t0 = mallocs(), time.Now() }
func (s *stopwatch) stop()  { s.wall += time.Since(s.t0); s.mallocs += mallocs() - s.m0 }

// perCall stores the probe's result under the two metric names.
func (s *stopwatch) perCall(v map[string]float64, timeName, allocName string, unit time.Duration, calls int) {
	v[timeName] = float64(s.wall) / float64(unit) / float64(calls)
	v[allocName] = float64(s.mallocs) / float64(calls)
}

// probeShape is the stream a workload moves: elems elements per stream,
// each elem, packed into MPI buffers of mpiBuf bytes or sent one TCP frame
// per element.
type probeShape struct {
	elem   any
	elems  int
	mpiBuf int
	size   int // marshaled bytes of one element
	frame  int // payload bytes of one carrier frame
}

func shapeOf(w workload) (probeShape, error) {
	s := probeShape{elem: int64(2000), elems: w.probeElems, mpiBuf: w.mpiBuf}
	if w.probeElemBytes > 0 {
		s.elem = make([]float64, w.probeElemBytes/8)
	}
	size, err := marshal.Size(s.elem)
	if err != nil {
		return s, err
	}
	s.size, s.frame = size, size
	if s.mpiBuf > 0 {
		s.frame = min(size, s.mpiBuf)
	}
	return s, nil
}

// calls bounds a probe's call count by the bytes each call moves.
func calls(scale float64, bytesPerCall int) int {
	n := min(probeCalls, probeBytes/max(1, bytesPerCall))
	return max(10, int(float64(n)*scale))
}

// runProbes fills v with every probe metric. tw is a twin that has run the
// workload's sessions; only the contention scan uses it.
func runProbes(w workload, tw *twin, scale float64, v map[string]float64) error {
	shape, err := shapeOf(w)
	if err != nil {
		return err
	}
	env, err := hw.NewLOFAR()
	if err != nil {
		return err
	}
	for _, p := range []func(probeShape, *hw.Env, float64, map[string]float64) error{
		probeMarshal, probeVtime, probeCarriers, probeRP, probeControl, probeWire,
	} {
		if err := p(shape, env, scale, v); err != nil {
			return err
		}
	}
	// hw: the contention multiplicities the carriers read on every frame.
	scanEnv := tw.core.Env()
	n := calls(scale, 0) / 5
	var sw stopwatch
	sink := 0
	sw.start()
	for i := 0; i < n; i++ {
		sink += scanEnv.DistinctBeNodes() + scanEnv.StreamsOnIO(0)
	}
	sw.stop()
	runtime.KeepAlive(sink)
	sw.perCall(v, "hw.contention_scan_ns", "hw.contention_scan_allocs", time.Nanosecond, n)
	return nil
}

func probeMarshal(s probeShape, _ *hw.Env, scale float64, v map[string]float64) error {
	n := calls(scale, s.size)
	buf := make([]byte, 0, s.size)
	var err error
	var sw stopwatch
	sw.start()
	for i := 0; i < n; i++ {
		if buf, err = marshal.Append(buf[:0], s.elem); err != nil {
			return err
		}
	}
	sw.stop()
	sw.perCall(v, "marshal.append_ns", "marshal.append_allocs", time.Nanosecond, n)

	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		if _, _, err := marshal.Decode(buf); err != nil {
			return err
		}
	}
	sw.stop()
	sw.perCall(v, "marshal.decode_ns", "marshal.decode_allocs", time.Nanosecond, n)
	return nil
}

func probeVtime(_ probeShape, _ *hw.Env, scale float64, v map[string]float64) error {
	const step, svc = 100 * vtime.Microsecond, 50 * vtime.Microsecond
	n := 10 * calls(scale, 0)
	r := vtime.NewResource("probe.useas")
	var sw stopwatch
	at := vtime.Time(0)
	sw.start()
	for i := 0; i < n; i++ {
		at = at.Add(step)
		r.UseAs("q1", at, svc)
	}
	sw.stop()
	sw.perCall(v, "vtime.useas_ns", "vtime.useas_allocs", time.Nanosecond, n)

	// One commit of 16 chained links: the receiver's default kernel batch.
	n = calls(scale, 0)
	txn := vtime.NewResource("probe.txn").Txn("q1")
	at = 0
	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		for k := 0; k < 16; k++ {
			at = at.Add(step)
			txn.Reserve(at, svc)
		}
		txn.Commit()
	}
	sw.stop()
	sw.perCall(v, "vtime.txn_commit_ns", "vtime.txn_commit_allocs", time.Nanosecond, n)
	return nil
}

// drain consumes an inbox like a receiver that discards: pooled payloads go
// back to the pool. It returns when the inbox is closed.
func drain(inbox carrier.Inbox) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range inbox {
			carrier.Recycle(&d.Frame)
		}
	}()
	return done
}

// sendFrames times n Sends of frame-byte pooled payloads over conn.
func sendFrames(conn carrier.Conn, frame, n int, sw *stopwatch) error {
	ready := vtime.Time(0)
	sw.start()
	defer sw.stop()
	for i := 0; i < n; i++ {
		free, err := conn.Send(carrier.Frame{Source: "probe", Payload: carrier.GetBuf(frame), Ready: ready, Pooled: true})
		if err != nil {
			return err
		}
		ready = free
	}
	return nil
}

func probeCarriers(s probeShape, env *hw.Env, scale float64, v map[string]float64) error {
	n := calls(scale, s.frame)
	// The window of 64 frames is the headroom that keeps Send from parking
	// on the drain goroutine at every frame.
	inbox := make(carrier.Inbox, 64)
	done := drain(inbox)
	defer func() { close(inbox); <-done }()

	mpi, err := mpicar.NewFabric(env).Dial(1, 0, carrier.DoubleBuffered, inbox)
	if err != nil {
		return err
	}
	var sw stopwatch
	if err := sendFrames(mpi, s.frame, n, &sw); err != nil {
		return err
	}
	sw.perCall(v, "mpicar.send_ns", "mpicar.send_allocs", time.Nanosecond, n)
	if err := mpi.Close(); err != nil {
		return err
	}

	tcp, err := tcpcar.NewFabric(env).Dial(
		tcpcar.Endpoint{Cluster: hw.BackEnd, Node: 1}, tcpcar.Endpoint{Cluster: hw.BlueGene, Node: 0}, inbox)
	if err != nil {
		return err
	}
	sw = stopwatch{}
	if err := sendFrames(tcp, s.frame, n, &sw); err != nil {
		return err
	}
	sw.perCall(v, "tcpcar.send_ns", "tcpcar.send_allocs", time.Nanosecond, n)
	return tcp.Close()
}

// inboxConn is a carrier that charges nothing: frames arrive when they were
// ready. With a nil inbox it discards them, like a receiver that only
// recycles.
type inboxConn struct{ inbox carrier.Inbox }

func (c inboxConn) Send(f carrier.Frame) (vtime.Time, error) {
	if c.inbox == nil {
		carrier.Recycle(&f)
	} else {
		c.inbox <- carrier.Delivered{Frame: f, At: f.Ready}
	}
	return f.Ready, nil
}

func (inboxConn) Close() error { return nil }

func probeRP(s probeShape, env *hw.Env, scale float64, v map[string]float64) error {
	scfg := rp.SenderConfig{BufBytes: 1 << 20, Mode: carrier.DoubleBuffered, FlushPerElement: true, MarshalPerByte: env.Cost.BGMarshalByte}
	if s.mpiBuf > 0 {
		scfg.BufBytes, scfg.FlushPerElement = s.mpiBuf, false
	}
	el := sqep.Element{Value: s.elem}
	target := calls(scale, s.frame)

	// Sender: marshal, pack, flush into a discarding carrier.
	var sw stopwatch
	frames := 0
	sw.start()
	for frames < target {
		f, _, err := rp.PushElements("probe", inboxConn{}, scfg, el, s.elems)
		if err != nil {
			return err
		}
		frames += int(f)
	}
	sw.stop()
	sw.perCall(v, "rp.push_ns_per_frame", "rp.push_allocs_per_frame", time.Nanosecond, frames)

	// Receiver: a round fills an inbox with whole streams untimed, then
	// times Receiver.Next to the end of the last stream.
	perStream, _, err := rp.PushElements("probe", inboxConn{}, scfg, el, s.elems)
	if err != nil {
		return err
	}
	streams := max(1, min(target, 2000)/int(perStream))
	sw, frames = stopwatch{}, 0
	for frames < target {
		inbox := make(carrier.Inbox, streams*(int(perStream)+1)) // room for every frame: nothing receives while it fills
		for i := 0; i < streams; i++ {
			if _, _, err := rp.PushElements(fmt.Sprintf("probe%d", i), inboxConn{inbox}, scfg, el, s.elems); err != nil {
				return err
			}
		}
		recv := rp.NewReceiver(inbox, rp.ReceiverConfig{
			Producers: streams, MPIPerByte: env.Cost.BGMarshalByte, TCPPerByte: env.Cost.BGCPUByte,
			CPU: vtime.NewResource("probe.cpu"), TrackOffsets: true, BatchFrames: 16, Consumer: "probe",
		})
		got := 0
		sw.start()
		for {
			_, ok, err := recv.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			got++
		}
		sw.stop()
		if got != streams*s.elems {
			return fmt.Errorf("rp probe: received %d elements, sent %d", got, streams*s.elems)
		}
		frames += streams * int(perStream)
	}
	sw.perCall(v, "rp.recv_ns_per_frame", "rp.recv_allocs_per_frame", time.Nanosecond, frames)
	return nil
}

func probeControl(_ probeShape, env *hw.Env, scale float64, v map[string]float64) error {
	fe, err := coord.New(env, hw.FrontEnd)
	if err != nil {
		return err
	}
	bg, err := coord.New(env, hw.BlueGene)
	if err != nil {
		return err
	}
	be, err := coord.New(env, hw.BackEnd)
	if err != nil {
		return err
	}

	// place: one planning call for a batch of 8 on the empty BlueGene.
	dbs := map[hw.ClusterName]*cndb.DB{hw.FrontEnd: fe.DB(), hw.BlueGene: bg.DB(), hw.BackEnd: be.DB()}
	planner := place.New(env, dbs, place.Config{Objective: place.AggregateThroughput})
	n := calls(scale, 0) / 5
	var sw stopwatch
	sw.start()
	for i := 0; i < n; i++ {
		if _, ok := planner.PlanPlacement("probe", hw.BlueGene, nil, 8); !ok {
			return fmt.Errorf("place probe: nothing admissible on an empty partition")
		}
	}
	sw.stop()
	sw.perCall(v, "place.plan_us", "place.plan_allocs", time.Microsecond, n)

	// cndb: lease one node along psetrr() and give it back.
	seq, err := cndb.PsetRR(env)
	if err != nil {
		return err
	}
	n = calls(scale, 0)
	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		id, err := bg.DB().SelectFor("probe", seq)
		if err != nil {
			return err
		}
		bg.DB().ReleaseFor("probe", id)
	}
	sw.stop()
	sw.perCall(v, "cndb.select_release_ns", "cndb.select_release_allocs", time.Nanosecond, n)

	// coord: a BlueGene placement through the front-end queue to the reply.
	poller, err := coord.NewBGPoller(fe, bg, 0)
	if err != nil {
		return err
	}
	defer poller.Shutdown()
	n = calls(scale, 0) / 5
	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		reply, err := fe.SubmitBGPlacementFor("probe", seq)
		if err != nil {
			return err
		}
		res := <-reply
		if res.Err != nil {
			return res.Err
		}
		bg.ReleaseFor("probe", res.Node)
	}
	sw.stop()
	sw.perCall(v, "coord.bg_place_us", "coord.bg_place_allocs", time.Microsecond, n)

	// core: a whole engine, built and closed.
	n = max(2, int(20*scale))
	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		eng, err := core.NewEngine()
		if err != nil {
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}
	}
	sw.stop()
	sw.perCall(v, "core.new_engine_ms", "core.new_engine_allocs", time.Millisecond, n)
	return nil
}

// probeWire encodes and decodes Row frames as the server's pump and the
// client's reader do. Every workload's result rows are integers.
func probeWire(_ probeShape, _ *hw.Env, scale float64, v map[string]float64) error {
	n := calls(scale, 0)
	var stream []byte
	var sw stopwatch
	sw.start()
	for i := 0; i < n; i++ {
		payload, err := wire.EncodeBag(int64(7), int64(i), "", wire.WireValue(int64(i)))
		if err != nil {
			return err
		}
		stream = wire.AppendFrame(stream, wire.MsgRow, payload)
	}
	sw.stop()
	sw.perCall(v, "wire.append_row_ns", "wire.append_row_allocs", time.Nanosecond, n)

	r := wire.NewReader(bytes.NewReader(stream), 0)
	sw = stopwatch{}
	sw.start()
	for i := 0; i < n; i++ {
		f, err := r.Next()
		if err != nil {
			return err
		}
		if _, err := wire.DecodeBag(f.Payload, 4); err != nil {
			return err
		}
	}
	sw.stop()
	sw.perCall(v, "wire.read_row_ns", "wire.read_row_allocs", time.Nanosecond, n)
	return nil
}
