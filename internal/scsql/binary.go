package scsql

import (
	"cmp"
	"errors"
	"fmt"
)

// applyBinary evaluates an arithmetic or comparison operator over runtime
// values. Integer arithmetic stays integral (truncating division); mixing
// an integer with a float promotes to float. Comparisons work on numbers
// and on strings, yielding bool.
func applyBinary(op string, l, r any) (any, error) {
	var isArith bool
	switch op {
	case "+", "-", "*", "/":
		li, lok := l.(int64)
		ri, rok := r.(int64)
		if lok && rok {
			return arith(op, li, ri)
		}
		isArith = true
	case "<", "<=", ">", ">=", "<>", "=":
		if ls, ok := l.(string); ok {
			rs, ok := r.(string)
			if !ok {
				return nil, fmt.Errorf("cannot compare string with %T", r)
			}
			return compare(op, ls, rs), nil
		}
	default:
		return nil, fmt.Errorf("unknown operator %q", op)
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, fmt.Errorf("left operand of %q: %w", op, err)
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, fmt.Errorf("right operand of %q: %w", op, err)
	}
	if isArith {
		return arith(op, lf, rf)
	}
	return compare(op, lf, rf), nil
}

var errDivZero = errors.New("division by zero")

// arith applies the arithmetic operator op to two values of one type.
func arith[T int64 | float64](op string, l, r T) (any, error) {
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	}
	if r == 0 {
		return nil, errDivZero
	}
	return l / r, nil
}

// compare applies the comparison operator op to two values of one type.
func compare[T cmp.Ordered](op string, l, r T) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "=":
		return l == r
	}
	return l != r
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, fmt.Errorf("not a number: %T", v)
	}
}
