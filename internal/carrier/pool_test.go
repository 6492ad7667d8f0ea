package carrier

import "testing"

func TestRecycleClearsOwnershipExactlyOnce(t *testing.T) {
	f := Frame{Payload: GetBuf(128), Pooled: true}
	Recycle(&f)
	if f.Pooled || f.Payload != nil {
		t.Fatalf("Recycle left ownership marks: pooled=%v payload=%v", f.Pooled, f.Payload != nil)
	}
	// A second Recycle of the same frame is the double-recycle the ownership
	// rule ("once Send is called the carrier owns the frame") can produce
	// when both an error path and a caller clean up; it must be a safe no-op.
	Recycle(&f)
}

func TestRecycleUnpooledPayloadIsUntouched(t *testing.T) {
	buf := []byte{1, 2, 3}
	f := Frame{Payload: buf}
	Recycle(&f)
	if len(f.Payload) != 3 {
		t.Fatal("Recycle must not take ownership of unpooled payloads")
	}
}

func TestPutBufDoubleInsertPanics(t *testing.T) {
	buf := GetBuf(128)
	PutBuf(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutBuf of the same buffer must panic: a double insert hands one buffer to two future frames")
		}
	}()
	PutBuf(buf)
}

func TestGetBufReusesRecycledBuffer(t *testing.T) {
	buf := GetBuf(256)
	PutBuf(buf)
	again := GetBuf(256)
	if &again[0] != &buf[0] {
		t.Fatal("pool did not hand back the recycled buffer")
	}
	PutBuf(again)
}

// TestClassPool holds both instantiations of the size-class free list to the
// same contract.
func TestClassPool(t *testing.T) {
	t.Run("bytes", func(t *testing.T) { testClassPool(t, &classPool[byte]{maxClass: poolMaxClass}) })
	t.Run("floats", func(t *testing.T) { testClassPool(t, &classPool[float64]{maxClass: floatMaxClass}) })
}

func testClassPool[T any](t *testing.T, p *classPool[T]) {
	// Class rounding: a made slice has the requested length and the capacity
	// of the smallest class that holds it.
	for _, tc := range []struct{ n, wantCap int }{{1, 1}, {100, 128}, {128, 128}, {129, 256}, {1 << p.maxClass, 1 << p.maxClass}} {
		if b := p.get(tc.n); len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("get(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
	}
	if b := p.get(0); b != nil {
		t.Errorf("get(0) = %v, want nil", b)
	}
	// Above the largest class nothing is rounded.
	huge := p.get(1<<p.maxClass + 1)
	if len(huge) != 1<<p.maxClass+1 || cap(huge) != len(huge) {
		t.Errorf("get above the largest class: len %d cap %d", len(huge), cap(huge))
	}

	// A class keeps at most poolClassCap slices; a returned one is handed out
	// again at the length asked for.
	put := map[*T]bool{}
	for i := 0; i < poolClassCap+8; i++ {
		b := make([]T, 256)
		put[&b[0]] = true
		p.put(b)
	}
	kept := 0
	for i := 0; i < poolClassCap+8; i++ {
		if b := p.get(200); put[&b[0]] {
			kept++
			if len(b) != 200 || cap(b) != 256 {
				t.Fatalf("reused slice: len %d cap %d, want 200 and 256", len(b), cap(b))
			}
		}
	}
	if kept != poolClassCap {
		t.Errorf("class kept %d of %d returned slices, want %d", kept, poolClassCap+8, poolClassCap)
	}

	// A foreign slice files under the largest class its capacity covers, so
	// it is never handed out for more than it holds.
	foreign := make([]T, 3, 100)
	p.put(foreign)
	if b := p.get(100); cap(b) != 128 {
		t.Errorf("get(100) after put(cap 100): cap %d, want a fresh 128", cap(b))
	}
	if b := p.get(64); len(b) != 64 || &b[0] != &foreign[:1][0] {
		t.Errorf("get(64) did not reuse the foreign slice of capacity 100")
	}
	// One above the largest class is kept in it.
	p.put(huge)
	if b := p.get(1 << p.maxClass); &b[0] != &huge[0] {
		t.Errorf("a slice above the largest class was not reused for the largest class")
	}

	// The second return of one slice panics, whatever length it comes back at.
	b := p.get(16)
	p.put(b)
	defer func() {
		if recover() == nil {
			t.Error("second put of the same slice must panic")
		}
	}()
	p.put(b[:1])
}
