package wire

import (
	"fmt"

	"scsq/internal/catalog"
)

// WireValue lowers an engine result value into the marshal-encodable subset
// of Go values. Scalars, strings, []float64 arrays and []any bags pass
// through; catalog tuples — the rows of sys_* tables, which marshal does
// not know — become bags of their column values, recursively. Values the
// codec cannot carry degrade to their string form rather than failing the
// whole result frame: the wire is a reporting surface, not a type system.
func WireValue(v any) any {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, []float64:
		return x
	case int:
		return int64(x)
	case catalog.Tuple:
		return WireValue(x.Vals)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = WireValue(e)
		}
		return out
	default:
		return fmt.Sprintf("%v", x)
	}
}
