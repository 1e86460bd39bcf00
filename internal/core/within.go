package core

import "fmt"

// Ends says which bounds of a range a value may equal.
type Ends uint8

// The four kinds of range.
const (
	Closed Ends = iota // [lo, hi]
	OpenLo             // (lo, hi]
	OpenHi             // [lo, hi)
	Open               // (lo, hi)
)

// Within is the one range check of every Validate: nil when v lies between
// lo and hi, each bound included or not as ends says, else the error
// "name must be in [lo, hi], got v" (name is "pkg: Field"). NaN and ±Inf
// are outside every range, whatever the bounds. A field with no upper
// bound passes its type's largest value as hi.
func Within[T ~int | ~int64 | ~float64](name string, v T, ends Ends, lo, hi T) error {
	if f := float64(v); f-f == 0 &&
		(lo < v || ends&OpenLo == 0 && lo == v) &&
		(v < hi || ends&OpenHi == 0 && v == hi) {
		return nil
	}
	return rangeError[T]{name, ends, lo, hi, v}
}

// rangeError is Within's error: built without a call, so that Within
// inlines, and allocated only when a check fails.
type rangeError[T ~int | ~int64 | ~float64] struct {
	name      string
	ends      Ends
	lo, hi, v T
}

func (e rangeError[T]) Error() string {
	num := func(x T) any { // a number: an enum's String may name a valid value
		if T(1)/2 == 0 {
			return int64(x)
		}
		return float64(x)
	}
	return fmt.Sprintf("%s must be in %c%v, %v%c, got %v", e.name, "[("[e.ends&OpenLo], num(e.lo), num(e.hi), "])"[e.ends&OpenHi>>1], num(e.v))
}
