package mcr

import "fmt"

// NewMode is the error-returning constructor panic-free callers use.
func NewMode(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("mcr: bad clone factor %d", k)
	}
	return k, nil
}

// A panic in a configuration library: flagged.
func mustMode(k int) int {
	v, err := NewMode(k)
	if err != nil {
		panic(err) // want `panic in library code`
	}
	return v
}

// The escape hatch: a justified, annotated panic is suppressed.
func allowedMode(k int) int {
	v, err := NewMode(k)
	if err != nil {
		panic(err) //mcrlint:allow panicpolicy test-only constructor
	}
	return v
}
