package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestValidateMetric(t *testing.T) {
	for _, ok := range []string{"exec", "readlat", "edp"} {
		if err := validateMetric(ok); err != nil {
			t.Errorf("metric %q rejected: %v", ok, err)
		}
	}
	err := validateMetric("latency")
	if err == nil {
		t.Fatal("bad metric accepted")
	}
	for _, want := range []string{"exec", "readlat", "edp", "latency"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error must list %q: %v", want, err)
		}
	}
}

func TestValidateFig(t *testing.T) {
	for _, ok := range []int{3, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18} {
		if err := validateFig(ok); err != nil {
			t.Errorf("fig %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{0, 1, 2, 9, 19, -3} {
		err := validateFig(bad)
		if err == nil {
			t.Errorf("fig %d accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "11") {
			t.Errorf("error must list the valid figures: %v", err)
		}
	}
}

func TestValidateExtra(t *testing.T) {
	for _, ok := range []string{"combined", "tldram", "shootout", "wiring", "scheduler", "rowpolicy", "repeat", "resilience"} {
		if err := validateExtra(ok); err != nil {
			t.Errorf("extra %q rejected: %v", ok, err)
		}
	}
	err := validateExtra("nope")
	if err == nil {
		t.Fatal("bad extra accepted")
	}
	if !strings.Contains(err.Error(), "tldram") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error must name the input and the valid studies: %v", err)
	}
}

func TestRunRejectsUnknownFig(t *testing.T) {
	// run() is only reached through validateFig, but keep its own guard.
	if err := run(99, nil, "exec"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestValidateSpecTimeout(t *testing.T) {
	for _, c := range []struct {
		d  time.Duration
		ok bool
	}{
		{0, true},
		{30 * time.Second, true},
		{-5 * time.Second, false},
		{-1, false},
	} {
		err := validateSpecTimeout(c.d)
		if (err == nil) != c.ok {
			t.Errorf("validateSpecTimeout(%v) = %v, want ok=%v", c.d, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), c.d.String()) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateJobs(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{0, true},
		{1, true},
		{4, true},
		{-1, false},
		{-3, false},
	} {
		err := validateJobs(c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateJobs(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateInsts(t *testing.T) {
	for _, c := range []struct {
		n  int64
		ok bool
	}{
		{0, true},
		{20_000, true},
		{-1, false},
		{-5, false},
	} {
		err := validateInsts(c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateInsts(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateSeeds(t *testing.T) {
	for _, c := range []struct {
		extra string
		n     int
		ok    bool
	}{
		{"repeat", 5, true},
		{"repeat", 1, true},
		{"repeat", 0, false},
		{"repeat", -2, false},
		{"", 0, true}, // -seeds is read only by -extra repeat
		{"shootout", -2, true},
	} {
		err := validateSeeds(c.extra, c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateSeeds(%q, %d) = %v, want ok=%v", c.extra, c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}
