package carrier

import (
	"testing"
	"unsafe"
)

func TestBufferingString(t *testing.T) {
	tests := []struct {
		b    Buffering
		want string
	}{
		{SingleBuffered, "single"},
		{DoubleBuffered, "double"},
		{Buffering(0), "unknown"},
		{Buffering(9), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.b, got, tt.want)
		}
	}
}

func TestFrameZeroValue(t *testing.T) {
	var f Frame
	if f.Last || f.Payload != nil || f.Ready != 0 {
		t.Errorf("zero frame = %+v", f)
	}
}

// TestDeliveredStaysSmall: a delivery fills every inbox slot and every
// staged batch entry and is moved once per hop of its way, so what a
// healthy, untraced frame does not need stays behind Frame.Note. The bounds
// are bytes on a 64-bit host; a 32-bit one reads less.
func TestDeliveredStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 72 {
		t.Errorf("a frame takes %d bytes, want at most 72", n)
	}
	if n := unsafe.Sizeof(Delivered{}); n > 88 {
		t.Errorf("a delivery takes %d bytes, want at most 88", n)
	}
}
