//go:build linux

package wire

import (
	"errors"
	"syscall"
	"testing"
	"unsafe"

	"scsq/internal/marshal"
)

// TestAppendRowRollsBackOnUnencodableValue covers AppendRow's only failure:
// a value the format's u32 length fields cannot carry. A string of 4 GiB + 1
// bytes is one; it is mapped without access rights so that it costs address
// space only — both encoders refuse it by its length, before reading a byte.
func TestAppendRowRollsBackOnUnencodableValue(t *testing.T) {
	if unsafe.Sizeof(int(0)) < 8 {
		t.Skip("needs a 64-bit address space")
	}
	const size = 1<<32 + 1
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", size, err)
	}
	defer syscall.Munmap(mem)
	huge := unsafe.String(&mem[0], len(mem))

	for name, v := range map[string]any{
		"string":        huge,
		"inside a bag":  []any{int64(1), []any{huge}},
		"after a field": []any{"fine", huge},
	} {
		_, wantErr := refRow(9, 1, "src", v)
		if !errors.Is(wantErr, marshal.ErrTooLarge) {
			t.Fatalf("%s: reference encoding err = %v, want ErrTooLarge", name, wantErr)
		}
		buf, err := AppendRow(nil, 3, 0, "", int64(1))
		if err != nil {
			t.Fatal(err)
		}
		before := string(buf)
		got, err := AppendRow(buf, 9, 1, "src", v)
		if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, marshal.ErrTooLarge) {
			t.Fatalf("%s: AppendRow err = %v, want the reference's %v", name, err, wantErr)
		}
		if string(got) != before {
			t.Fatalf("%s: buffer not rolled back: %d bytes, want the %d from before", name, len(got), len(before))
		}
	}
}
