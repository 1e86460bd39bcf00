package runplan

import "time"

// ConfigKey stands in for the memoization-key constructor.
func ConfigKey(cfg any) (string, error) {
	return "", nil
}

// A wall-clock stamp fed to the memoization key would silently defeat
// baseline sharing: flagged at the clock read.
func memoize() {
	stamp := time.Now().String() // want `time\.Now is wall-clock nondeterminism`
	_, _ = ConfigKey(stamp)
}

// Keyed on stable configuration: quiet.
func memoizeStable(cfg any) {
	_, _ = ConfigKey(cfg)
}
