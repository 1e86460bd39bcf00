package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/power"
)

// Wall-clock reads in simulation code: flagged.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}

// The escape hatch: annotated instrumentation sites are suppressed.
func instrumented() time.Duration {
	start := time.Now()      //mcrlint:allow determinism wall-clock instrumentation only
	return time.Since(start) //mcrlint:allow determinism wall-clock instrumentation only
}

// Elapsed and remaining host time are wall-clock reads too: flagged.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since is wall-clock nondeterminism`
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time\.Until is wall-clock nondeterminism`
}

func remainingInstrumented(deadline time.Time) time.Duration {
	return time.Until(deadline) //mcrlint:allow determinism wall-clock instrumentation only
}

// The global math/rand source: flagged.
func unseeded() int {
	return rand.Intn(8) // want `rand\.Intn draws from the global math/rand source`
}

// An explicitly seeded generator: quiet.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Map iteration feeding printed output: flagged.
func printMap(m map[string]int) {
	for k, v := range m { // want `range over map feeds output \(Println\)`
		fmt.Println(k, v)
	}
}

// Map iteration feeding an append: flagged.
func collectValues(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `range over map feeds an append`
		out = append(out, v)
	}
	return out
}

// Map iteration with writes keyed by the map key: quiet, the end state is
// order-free.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Result stands in for sim.Result, which the sources below would reach.
type Result struct {
	Metric float64
	Keys   []string
}

// jitter reads the wall clock two frames below Run: flagged at the read,
// not at the result it reaches through scale.
func jitter() float64 {
	return float64(time.Now().UnixNano()) // want `time\.Now is wall-clock nondeterminism`
}

func scale() float64 {
	return jitter() / 1e9
}

func Run() *Result {
	return &Result{Metric: scale()}
}

// A reading from another package: the finding is power.Sample's own.
func RunPower() Result {
	return Result{Metric: power.Sample()}
}

// Map order escaping into a slice that a caller publishes: flagged at
// the loop, whoever returns the keys.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over map feeds an append`
		keys = append(keys, k)
	}
	return keys
}

func RunKeys(m map[string]int) Result {
	return Result{Keys: unsortedKeys(m)}
}

// The global math/rand source straight into a result: flagged.
func RunRand() Result {
	return Result{Metric: rand.Float64()} // want `rand\.Float64 draws from the global math/rand source`
}
