package rp

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// producerFrames runs arrays through a sender driver and returns the frames
// it emitted (pooled payloads, Last frame included).
func producerFrames(t testing.TB, src string, bufBytes int, arrays [][]float64) []carrier.Delivered {
	t.Helper()
	inbox := make(carrier.Inbox, 4096)
	d, err := newSenderDriver(src, &loopConn{inbox: inbox, perByte: 1}, SenderConfig{BufBytes: bufBytes, Mode: carrier.SingleBuffered})
	if err != nil {
		t.Fatal(err)
	}
	for i, arr := range arrays {
		if err := d.push(sqep.Element{Value: arr, At: vtime.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	close(inbox)
	var frames []carrier.Delivered
	for fr := range inbox {
		frames = append(frames, fr)
	}
	return frames
}

// lifetimeShapes are the frame layouts of the element-lifetime tests: build
// returns a filled inbox, its producer count and each producer's arrays.
var lifetimeShapes = []struct {
	name  string
	build func(t testing.TB) (carrier.Inbox, int, map[string][][]float64)
}{
	{"several arrays in one frame", func(t testing.TB) (carrier.Inbox, int, map[string][][]float64) {
		arrays := [][]float64{goldenArray(6, 1), goldenArray(6, 2), goldenArray(3, 3), goldenArray(6, 4)}
		frames := producerFrames(t, "a", 1<<16, arrays)
		if len(frames) != 1 {
			t.Fatalf("%d frames, want the whole stream in one", len(frames))
		}
		return inboxOf(frames), 1, map[string][][]float64{"a": arrays}
	}},
	{"one array split over 300 frames", func(t testing.TB) (carrier.Inbox, int, map[string][][]float64) {
		arrays := [][]float64{goldenArray(37500, 1), goldenArray(4, 2)}
		frames := producerFrames(t, "a", 1000, arrays)
		if len(frames) < 300 {
			t.Fatalf("%d frames, want ≥ 300", len(frames))
		}
		return inboxOf(frames), 1, map[string][][]float64{"a": arrays}
	}},
	{"four producers interleaved", func(t testing.TB) (carrier.Inbox, int, map[string][][]float64) {
		want := map[string][][]float64{}
		var perSrc [][]carrier.Delivered
		for p, src := range []string{"a", "b", "c", "d"} {
			for i := 0; i < 5; i++ {
				want[src] = append(want[src], goldenArray(10+p, 10*p+i))
			}
			// 85–109 B arrays in 64 B buffers: every array straddles frames.
			perSrc = append(perSrc, producerFrames(t, src, 64, want[src]))
		}
		var frames []carrier.Delivered
		for i := 0; len(perSrc) > 0; i++ {
			k := i % len(perSrc)
			frames = append(frames, perSrc[k][0])
			if perSrc[k] = perSrc[k][1:]; len(perSrc[k]) == 0 {
				perSrc = append(perSrc[:k], perSrc[k+1:]...)
			}
		}
		return inboxOf(frames), 4, want
	}},
}

func inboxOf(frames []carrier.Delivered) carrier.Inbox {
	inbox := make(carrier.Inbox, len(frames))
	for _, fr := range frames {
		inbox <- fr
	}
	return inbox
}

// TestReceiverLifetimeRetainingConsumer: a consumer that never allowed reuse
// keeps every value it pulled; after the stream has ended (and every frame
// went back to the pool) the arrays are distinct and unmodified.
func TestReceiverLifetimeRetainingConsumer(t *testing.T) {
	for _, s := range lifetimeShapes {
		for _, batch := range []int{1, 16} {
			inbox, producers, want := s.build(t)
			els, err := sqep.Drain(NewReceiver(inbox, ReceiverConfig{Producers: producers, BatchFrames: batch}))
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			got := map[string][][]float64{}
			seen := map[*float64]bool{}
			for _, el := range els {
				arr := el.Value.([]float64)
				if seen[&arr[0]] {
					t.Fatalf("%s: two retained arrays share storage", s.name)
				}
				seen[&arr[0]] = true
				got[el.Src] = append(got[el.Src], arr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s batch=%d: retained arrays differ from what was sent", s.name, batch)
			}
		}
	}
}

// TestReceiverLifetimeRadixCombineQueues: radixcombine parks one producer's
// arrays until their partners arrive and never allows reuse, so it must
// compute what it computes over elements that are nobody else's.
func TestReceiverLifetimeRadixCombineQueues(t *testing.T) {
	odd := [][]float64{goldenArray(8, 1), goldenArray(8, 2), goldenArray(8, 3)}
	even := [][]float64{goldenArray(8, 4), goldenArray(8, 5), goldenArray(8, 6)}
	// All of odd's arrays arrive in one frame before any of even's.
	frames := append(producerFrames(t, "odd", 1<<16, odd), producerFrames(t, "even", 1<<16, even)...)
	var fresh []sqep.Element
	for i := range odd {
		fresh = append(fresh, sqep.Element{Value: odd[i], Src: "odd"}, sqep.Element{Value: even[i], Src: "even"})
	}
	run := func(in sqep.Operator) []any {
		op := sqep.NewRadixCombine(in, "odd", "even")
		if err := op.Open(&sqep.Ctx{}); err != nil {
			t.Fatal(err)
		}
		els, err := sqep.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		var vals []any
		for _, el := range els {
			vals = append(vals, el.Value)
		}
		return vals
	}
	got := run(NewReceiver(inboxOf(frames), ReceiverConfig{Producers: 2, BatchFrames: 16}))
	if want := run(&sqep.Slice{Elements: fresh}); len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("radixcombine over a receiver = %v, want %v", got, want)
	}
}

// TestReceiverLifetimeRelay: an RP whose plan is a bare receiver allows
// reuse — each element is marshaled to every subscriber before the next is
// pulled — and must forward exactly what a retaining consumer would have seen.
func TestReceiverLifetimeRelay(t *testing.T) {
	for _, s := range lifetimeShapes {
		inbox, producers, _ := s.build(t)
		want, err := sqep.Drain(NewReceiver(inbox, ReceiverConfig{Producers: producers, BatchFrames: 16}))
		if err != nil {
			t.Fatal(err)
		}
		inbox, _, _ = s.build(t)
		up := NewReceiver(inbox, ReceiverConfig{Producers: producers, BatchFrames: 16})
		relay := New("relay", hw.BlueGene, 0, testCtx(t), up)
		out := make(carrier.Inbox, 1024)
		if err := relay.Subscribe(&loopConn{inbox: out}, SenderConfig{BufBytes: 1000, Mode: carrier.DoubleBuffered}); err != nil {
			t.Fatal(err)
		}
		if err := relay.Start(); err != nil {
			t.Fatal(err)
		}
		if err := relay.Wait(); err != nil {
			t.Fatal(err)
		}
		got, err := sqep.Drain(NewReceiver(out, ReceiverConfig{Producers: 1, BatchFrames: 16}))
		if err != nil {
			t.Fatal(err)
		}
		if !up.reuse || len(got) != len(want) {
			t.Fatalf("%s: reuse=%t, relayed %d elements, want %d", s.name, up.reuse, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Value, want[i].Value) {
				t.Fatalf("%s: relayed element %d differs from what the producers sent", s.name, i)
			}
		}
	}
}

// TestReceiverLifetimeCountMatchesMaterializing: count() reads no value, so
// its receiver steps over every one (split ones included), and must see the
// same number of elements and the same final timestamp as a count over the
// elements a retaining consumer pulled from the same frames.
func TestReceiverLifetimeCountMatchesMaterializing(t *testing.T) {
	count := func(in sqep.Operator) sqep.Element {
		op := sqep.NewStreamOf(sqep.NewCount(in))
		if err := op.Open(&sqep.Ctx{}); err != nil {
			t.Fatal(err)
		}
		els, err := sqep.Drain(op)
		if err != nil || len(els) != 1 {
			t.Fatalf("count: %v, %v", els, err)
		}
		return els[0]
	}
	for _, s := range lifetimeShapes {
		cfg := ReceiverConfig{TCPPerByte: 0.5, MPIPerByte: 0.25, BatchFrames: 16}
		var inbox carrier.Inbox
		inbox, cfg.Producers, _ = s.build(t)
		kept, err := sqep.Drain(NewReceiver(inbox, cfg))
		if err != nil {
			t.Fatal(err)
		}
		inbox, _, _ = s.build(t)
		r := NewReceiver(inbox, cfg)
		got, want := count(r), count(&sqep.Slice{Elements: kept})
		if got != want {
			t.Errorf("%s: count over the receiver = %+v, over retained elements %+v", s.name, got, want)
		}
		if !r.unread {
			t.Errorf("%s: count's Unread did not reach the receiver through streamof", s.name)
		}
	}
}

// TestReceiverLifetimeSumBorrows: sum() reads every value, so it borrows
// them, and folds exactly what a retaining consumer sees, scalars split over
// frames included.
func TestReceiverLifetimeSumBorrows(t *testing.T) {
	frames := func() carrier.Inbox {
		inbox := make(carrier.Inbox, 64)
		d, err := newSenderDriver("a", &loopConn{inbox: inbox, perByte: 1}, SenderConfig{BufBytes: 4, Mode: carrier.SingleBuffered})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{int64(3), 0.5, int64(-7), 2.25} {
			if err := d.push(sqep.Element{Value: v, At: vtime.Time(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
		return inbox
	}
	sum := func(in sqep.Operator) sqep.Element {
		op := sqep.NewStreamOf(sqep.NewSum(in))
		if err := op.Open(&sqep.Ctx{}); err != nil {
			t.Fatal(err)
		}
		els, err := sqep.Drain(op)
		if err != nil || len(els) != 1 {
			t.Fatalf("sum: %v, %v", els, err)
		}
		return els[0]
	}
	kept, err := sqep.Drain(NewReceiver(frames(), ReceiverConfig{Producers: 1, TCPPerByte: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReceiver(frames(), ReceiverConfig{Producers: 1, TCPPerByte: 0.5})
	if got, want := sum(r), sum(&sqep.Slice{Elements: kept}); got != want || got.Value != -1.25 {
		t.Errorf("sum over the receiver = %+v, over retained elements %+v, want -1.25", got, want)
	}
	if !r.reuse || r.unread {
		t.Errorf("sum's receiver: reuse=%t unread=%t, want it to borrow values", r.reuse, r.unread)
	}
}

// TestReceiverUnreadShortStreamFails: a Last frame that leaves a value
// incomplete ends the stream with the materializing path's complaint, and
// the same count of undecoded bytes, whether the unread receiver was
// counting the value off (array, string, scalar), reassembling it (a bag), or
// reassembling a cut header until it could count.
func TestReceiverUnreadShortStreamFails(t *testing.T) {
	enc := func(v any) []byte {
		b, err := marshal.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		frames [][]byte // the last one is Last
	}{
		{"array cut in its third frame", [][]byte{enc(int64(1)), enc([]float64{1, 2, 3, 4})[:12], enc([]float64{1, 2, 3, 4})[12:30]}},
		{"array header cut, then the array", [][]byte{enc([]float64{1, 2, 3})[:3], enc([]float64{1, 2, 3})[3:20]}},
		{"string cut", [][]byte{enc("abcdefgh")[:6], {}}},
		{"scalar cut after its tag", [][]byte{enc(2.5)[:1], enc(2.5)[1:4]}},
		{"bag cut", [][]byte{enc([]any{int64(1), "x"})[:9], enc([]any{int64(1), "x"})[9:15]}},
	} {
		run := func(use sqep.ValueUse) (int, error) {
			inbox := make(carrier.Inbox, len(tc.frames))
			var off uint64
			for i, p := range tc.frames {
				inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "p", Payload: p, Offset: off, Last: i == len(tc.frames)-1}}
				off += uint64(len(p))
			}
			r := NewReceiver(inbox, ReceiverConfig{Producers: 1, TrackOffsets: true})
			r.UseValues(use)
			els, err := sqep.Drain(r)
			return len(els), err
		}
		n, err := run(sqep.Owned)
		un, uerr := run(sqep.Unread)
		if err == nil || !strings.Contains(err.Error(), "undecoded bytes") {
			t.Fatalf("%s: materializing receiver: %v, want an undecoded-bytes error", tc.name, err)
		}
		if uerr == nil || uerr.Error() != err.Error() || un != n {
			t.Errorf("%s: unread receiver: %d elements, %v; materializing %d, %v", tc.name, un, uerr, n, err)
		}
	}
}

// TestReceiverLifetimeCountAllocates: on a warm pool count(extract) allocates
// 0 B per frame — a stream of twice the arrays costs what the short one does,
// its batch — whether each 300 kB array arrives whole or cut into 1 000 B
// buffers: it steps over every array, and over the split ones by counting
// their bytes off, so it leases no array and no reassembly buffer.
func TestReceiverLifetimeCountAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const floats = 37500
	shapes := []struct {
		name   string
		arrays int
		inbox  func(arrays int) carrier.Inbox
	}{
		{"one array per frame", 40, func(arrays int) carrier.Inbox { return countInbox(t, arrays, floats) }},
		{"arrays split over 300 frames", 3, func(arrays int) carrier.Inbox {
			arr := goldenArray(floats, 1)
			return inboxOf(producerFrames(t, "p", 1000, slices.Repeat([][]float64{arr}, arrays)))
		}},
	}
	for _, s := range shapes {
		count := func(arrays int) (allocated, frames uint64) {
			inbox := s.inbox(arrays)
			frames = uint64(len(inbox))
			r := NewReceiver(inbox, ReceiverConfig{Producers: 1, BatchFrames: 16})
			c := sqep.NewCount(r)
			if err := c.Open(&sqep.Ctx{}); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			el, _, err := c.Next()
			runtime.ReadMemStats(&after)
			if err != nil || el.Value != int64(arrays) {
				t.Fatalf("%s: count = %v, %v", s.name, el.Value, err)
			}
			if r.arr != nil || r.bufs != nil {
				t.Errorf("%s: leased an array of %d floats, reassembly buffers %v; want neither", s.name, cap(r.arr), r.bufs)
			}
			return after.TotalAlloc - before.TotalAlloc, frames
		}
		count(s.arrays) // warms the pool
		short, shortFrames := count(s.arrays)
		long, longFrames := count(2 * s.arrays)
		if perFrame := (long - min(short, long)) / (longFrames - shortFrames); perFrame != 0 {
			t.Errorf("%s: count allocated %d B over %d frames, %d B over %d: %d B per frame, want 0", s.name, short, shortFrames, long, longFrames, perFrame)
		}
	}
}

// countInbox returns an inbox holding one stream of n frames, each one array
// of the given length; the payloads are not pooled, so the same frames can be
// delivered again.
func countInbox(t testing.TB, n, floats int) carrier.Inbox {
	t.Helper()
	payload, err := marshal.Append(nil, goldenArray(floats, 1))
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(carrier.Inbox, n)
	for i := 0; i < n; i++ {
		inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "p", Payload: payload, Last: i == n-1}, At: vtime.Time(i), ViaTCP: true}
	}
	return inbox
}

// inPool reports how many of the buffers starting at ptrs (each with its
// capacity) sit in the pool that get and put front right now. It empties
// their size classes to look and puts those buffers back — the others it
// drops, or the fresh ones a short class made up the count with would fill it.
func inPool[T any](get func(int) []T, put func([]T), ptrs map[*T]int) int {
	classes := map[int]bool{}
	for _, c := range ptrs {
		classes[c] = true
	}
	var found [][]T
	for c := range classes {
		for i := 0; i <= 32; i++ { // a class keeps at most 32 free buffers
			if b := get(c); ptrs[&b[0]] > 0 {
				found = append(found, b)
			}
		}
	}
	for _, b := range found {
		put(b)
	}
	return len(found)
}

// TestReceiverRecycleExactlyOnce: whatever ends a receiver while frames are
// staged — the consumer closing, a bad payload, a Down frame, a closed inbox —
// and whatever the dedup discards, every pooled payload and every lease of the
// receiver's own (the reassembly buffer the split array of each case goes
// through, the array a non-retaining consumer's values live in) returns to its
// pool once (a second return panics), no lease returns while the value the
// consumer was last handed can still be read, and the elements and error the
// consumer sees are the ones the frames before the fault carry.
func TestReceiverRecycleExactlyOnce(t *testing.T) {
	bufs, arrs := map[*byte]int{}, map[*float64]int{}
	bufsInPool := func() int { return inPool(carrier.GetBuf, carrier.PutBuf, bufs) }
	pooled := func(off uint64, last bool, values ...any) carrier.Delivered {
		var enc []byte
		for _, v := range values {
			if b, ok := v.([]byte); ok {
				enc = append(enc, b...) // raw bytes: part of a value, or a corrupt payload
			} else {
				enc = append(enc, encInt(t, int64(v.(int)))...)
			}
		}
		buf := carrier.GetBuf(len(enc))
		copy(buf, enc)
		bufs[&buf[0]] = cap(buf)
		return carrier.Delivered{Frame: carrier.Frame{Source: "p", Payload: buf, Pooled: true, Offset: off, Last: last}}
	}
	// Every case cuts this 37-byte array, which the consumer sees as 100, in
	// two.
	arr, err := marshal.Append(nil, []float64{100, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := arr[:20], arr[20:]
	cases := []struct {
		name       string
		frames     func() []carrier.Delivered
		closeInbox bool
		pulls      int // Next calls before Close; 0 = until the stream ends or fails
		want       []int64
		wantErr    string
	}{
		{name: "close mid-batch", pulls: 3, want: []int64{1, 100, 2},
			frames: func() []carrier.Delivered {
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(29, false, tail, 2, 3), pooled(64, false, 4), pooled(73, false, 5), pooled(82, true, 6)}
			}},
		{name: "decode error in frame 3 of 5", want: []int64{1, 100}, wantErr: "marshal: unknown tag: 0xff",
			frames: func() []carrier.Delivered {
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(29, false, tail), pooled(46, false, []byte{0xff, 0, 0}), pooled(49, false, 3), pooled(58, true, 4)}
			}},
		{name: "down frame after 3 staged frames", want: []int64{1, 100, 2},
			wantErr: `rp: producer "p" failed: boom: rp: upstream producer down`,
			frames: func() []carrier.Delivered {
				down := pooled(55, true, 9)
				down.Down, down.DownErr = true, "boom"
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(29, false, tail), pooled(46, false, 2), down}
			}},
		{name: "inbox closed mid-drain, half an array pending", closeInbox: true, want: []int64{1, 100, 2},
			wantErr: "rp: inbox closed before end of stream",
			frames: func() []carrier.Delivered {
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(29, false, tail, 2), pooled(55, false, head)}
			}},
		{name: "an array ends the stream", want: []int64{1, 100, 100},
			frames: func() []carrier.Delivered {
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(29, false, tail, head), pooled(66, true, tail)}
			}},
		{name: "duplicate and partial-overlap replay", want: []int64{1, 100, 3},
			frames: func() []carrier.Delivered {
				return []carrier.Delivered{pooled(0, false, 1, head), pooled(0, false, 1, head), pooled(0, false, 1, head, tail[:5]), pooled(34, true, tail[5:], 3)}
			}},
	}
	for _, tc := range cases {
		for _, batch := range []int{1, 16} {
			clear(bufs)
			clear(arrs)
			frames := tc.frames()
			inbox := inboxOf(frames)
			if tc.closeInbox {
				close(inbox)
			}
			stop := make(chan struct{})
			r := NewReceiver(inbox, ReceiverConfig{Producers: 1, TrackOffsets: true, BatchFrames: batch, Stop: stop})
			r.UseValues(sqep.Borrowed)
			var got []int64
			var err error
			reassembled := false
			for n := 0; tc.pulls == 0 || n < tc.pulls; n++ {
				el, ok, nerr := r.Next()
				// What the receiver holds now is what it must give back later
				// (a lease may well be a payload buffer recycled earlier).
				for _, b := range r.bufs {
					bufs[&b[:1][0]] = cap(b)
					reassembled = true
				}
				if cap(r.arr) > 0 {
					arrs[&r.arr[:1][0]] = cap(r.arr)
				}
				if err = nerr; err != nil || !ok {
					break
				}
				switch v := el.Value.(type) {
				case int64:
					got = append(got, v)
				case []float64:
					if inPool(carrier.GetFloats, carrier.PutFloats, map[*float64]int{&v[0]: cap(v)}) != 0 {
						t.Errorf("%s batch=%d: the array just returned is already back in the pool", tc.name, batch)
					}
					got = append(got, int64(v[0]))
				}
			}
			if len(arrs) == 0 || !reassembled {
				t.Fatalf("%s batch=%d: the receiver leased %d arrays, a reassembly buffer: %t; want both", tc.name, batch, len(arrs), reassembled)
			}
			if cerr := r.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			close(stop)
			if batch == 1 {
				// Frames the receiver never pulled are the Close drain's (or
				// nobody's, once the inbox is closed), not this test's.
				for len(inbox) > 0 {
					fr := <-inbox
					carrier.Recycle(&fr.Frame)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s batch=%d: elements %v, want %v", tc.name, batch, got, tc.want)
			}
			if (err == nil) != (tc.wantErr == "") || (err != nil && err.Error() != tc.wantErr) {
				t.Errorf("%s batch=%d: error %v, want %q", tc.name, batch, err, tc.wantErr)
			}
			if strings.Contains(tc.wantErr, "upstream") && !errors.Is(err, ErrUpstreamDown) {
				t.Errorf("%s: error %v does not wrap ErrUpstreamDown", tc.name, err)
			}
			// The Close drain may still hold a frame it pulled before stop.
			n := bufsInPool()
			for deadline := time.Now().Add(5 * time.Second); n != len(bufs) && time.Now().Before(deadline); n = bufsInPool() {
				time.Sleep(time.Millisecond)
			}
			if n != len(bufs) {
				t.Errorf("%s batch=%d: %d of %d payloads and reassembly buffers are back in the pool", tc.name, batch, n, len(bufs))
			}
			if n := inPool(carrier.GetFloats, carrier.PutFloats, arrs); n != len(arrs) {
				t.Errorf("%s batch=%d: %d of %d leased arrays are back in the pool", tc.name, batch, n, len(arrs))
			}
		}
	}
}

// TestReceiverHeaderBombAllocatesLittle: an array header may claim 2³²−1
// elements, but storage follows the bytes that arrived — and an Unread
// receiver, which only counts them off, leases no array and no buffer at all.
// The stream ends 100 bytes later, and with the ordinary complaint.
func TestReceiverHeaderBombAllocatesLittle(t *testing.T) {
	payload := append([]byte{marshal.TagArray, 0xff, 0xff, 0xff, 0xff}, make([]byte, 100)...)
	for _, use := range []sqep.ValueUse{sqep.Owned, sqep.Borrowed, sqep.Unread} {
		r := NewReceiver(inboxOf([]carrier.Delivered{{Frame: carrier.Frame{Source: "p", Payload: payload, Last: true}}}), ReceiverConfig{Producers: 1})
		r.UseValues(use)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok, err := r.Next()
		runtime.ReadMemStats(&after)
		if want := `rp: stream from "p" ended with 105 undecoded bytes`; ok || err == nil || err.Error() != want {
			t.Fatalf("use=%d: Next = %t, %v, want %q", use, ok, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("use=%d: a 105-byte stream allocated %d B, want < 64 kB", use, got)
		}
		if use == sqep.Unread && (r.arr != nil || r.bufs != nil) {
			t.Errorf("unread: leased an array of %d floats, reassembly buffers %v", cap(r.arr), r.bufs)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

var benchSink any

// BenchmarkSenderPack sends 300 kB arrays over a connection that discards
// them. pack cuts them into 1 000 B buffers: the cost of a flush must be its
// frame, not the unflushed tail behind it. template and clone flush each
// array as one frame: a gen_array template's is a window of its encoding, an
// equal array's a pooled copy of it.
func BenchmarkSenderPack(b *testing.B) {
	tmpl := genTemplate(b, 37500)
	for _, s := range []struct {
		name       string
		arr        []float64
		perElement bool
	}{
		{"pack", goldenArray(37500, 1), false},
		{"template", tmpl, true},
		{"clone", slices.Clone(tmpl), true},
	} {
		b.Run(s.name, func(b *testing.B) {
			el := sqep.Element{Value: s.arr}
			d, err := newSenderDriver("p", discardConn{}, SenderConfig{BufBytes: 1000, Mode: carrier.DoubleBuffered, MarshalPerByte: 0.5, FlushPerElement: s.perElement})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.push(el); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d.framesOut), "ns/frame")
		})
	}
}

type discardConn struct{}

func (discardConn) Send(f carrier.Frame) (vtime.Time, error) {
	carrier.Recycle(&f)
	return f.Ready, nil
}

func (discardConn) Close() error { return nil }

// BenchmarkReceiverCount counts a stream of 40 one-array 300 kB frames, the
// receiving half of every bandwidth query of the paper over TCP, and one
// 300 kB array cut into 1 000 B frames, the same over MPI.
func BenchmarkReceiverCount(b *testing.B) {
	payload, err := marshal.Append(nil, goldenArray(37500, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		inbox func() carrier.Inbox
	}{
		{"whole", func() carrier.Inbox { return countInbox(b, 40, 37500) }},
		{"split", func() carrier.Inbox {
			// Unpooled payloads, so the same frames can be delivered again.
			inbox := make(carrier.Inbox, len(payload)/1000+1)
			for off := 0; off < len(payload); off += 1000 {
				end := min(off+1000, len(payload))
				inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "p", Payload: payload[off:end], Offset: uint64(off), Last: end == len(payload)}}
			}
			return inbox
		}},
	} {
		b.Run(s.name, func(b *testing.B) {
			frames := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inbox := s.inbox()
				frames += len(inbox)
				c := sqep.NewCount(NewReceiver(inbox, ReceiverConfig{Producers: 1, TCPPerByte: 0.5, BatchFrames: 16}))
				if err := c.Open(&sqep.Ctx{}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				el, _, err := c.Next()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = el.Value
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
		})
	}
}
