// Parameter-struct shapes mirroring the real internal/timing package, so
// the literal-constraint obligations key on the same type names, plus
// constant tables exercising both outcomes of each constraint.
package timing

// ModeTiming mirrors one Table 3 row.
type ModeTiming struct {
	K, M           int
	TRCDNS, TRASNS float64
}

// DDR3NS mirrors the nanosecond-denominated baseline parameter set.
type DDR3NS struct {
	TRCD, TRAS, TRP, TRFC float64
}

// Params mirrors the cycle-denominated derived parameter set.
type Params struct {
	TRCD, TRAS, TBURST int64
}

// canonical passes every constraint: tRAS clears tRCD + the 5 ns burst
// in every row, and TRCDNS is non-increasing in K.
func canonical() []ModeTiming {
	return []ModeTiming{
		{K: 1, M: 8, TRCDNS: 13.75, TRASNS: 35.0},
		{K: 2, M: 4, TRCDNS: 9.94, TRASNS: 35.0},
		{K: 4, M: 2, TRCDNS: 6.90, TRASNS: 35.0},
	}
}

// burstViolation closes the row before the burst drains.
func burstViolation() ModeTiming {
	return ModeTiming{K: 1, M: 8, TRCDNS: 13.75, TRASNS: 15.0} // want `violates tRAS >= tRCD \+ burst`
}

// kViolation senses slower at the larger gang: Early-Access backwards.
func kViolation() []ModeTiming {
	return []ModeTiming{
		{K: 1, M: 8, TRCDNS: 9.0, TRASNS: 35.0},
		{K: 2, M: 4, TRCDNS: 12.0, TRASNS: 35.0}, // want `Table 3 monotonicity violated`
	}
}

// package-level tables owe the constraints too.
var tableBad = DDR3NS{TRCD: 13.75, TRAS: 15.0, TRP: 13.75, TRFC: 260} // want `violates tRAS >= tRCD \+ burst`

var tableGood = DDR3NS{TRCD: 13.75, TRAS: 35.0, TRP: 13.75, TRFC: 260}

// cycleViolation breaks the same floor in the cycle domain (burst = 4).
func cycleViolation() Params {
	return Params{TRCD: 11, TRAS: 12, TBURST: 4} // want `violates tRAS >= tRCD \+ burst`
}

func cycleGood() Params {
	return Params{TRCD: 11, TRAS: 28, TBURST: 4}
}

// nonConstant fields are outside the static obligation.
func nonConstant(tras float64) ModeTiming {
	return ModeTiming{K: 1, TRCDNS: 13.75, TRASNS: tras}
}

// allowed is the per-line escape hatch.
func allowed() ModeTiming {
	//mcrlint:allow timingconstraint fixture exercises the suppression path
	return ModeTiming{K: 1, M: 8, TRCDNS: 13.75, TRASNS: 15.0}
}
