//go:build race

package main

// raceEnabled: the race detector slows the analysis several-fold, so the
// wall-time budget only holds without it.
const raceEnabled = true
