package mech

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// baseConfig returns a valid mode-less single-core configuration that the
// conflict cases below then corrupt.
func baseConfig() Config {
	return Config{
		Geom:   core.SingleCoreGeometry(),
		Mode:   mcr.Off(),
		Wiring: mcr.KtoN1K,
		Mech:   AllToggles(),
	}
}

func setTL(c *Config)   { v := DefaultTLConfig(); c.TL = &v }
func setNUAT(c *Config) { v := DefaultNUATConfig(); c.NUAT = &v }
func setCLR(c *Config)  { v := DefaultCLRConfig(); c.CLR = &v }

// TestComparatorConfigsMutuallyExclusive: every pair of comparator
// backends is rejected, as is any comparator alongside an MCR mode or
// combined layout. One comparator alone passes.
func TestComparatorConfigsMutuallyExclusive(t *testing.T) {
	setters := map[string]func(*Config){
		"tl": setTL, "nuat": setNUAT, "clr": setCLR,
	}

	for name, set := range setters {
		c := baseConfig()
		set(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s alone should validate: %v", name, err)
		}
	}

	names := []string{"tl", "nuat", "clr"}
	for i, a := range names {
		for _, b := range names[i+1:] {
			c := baseConfig()
			setters[a](&c)
			setters[b](&c)
			err := c.Validate()
			if err == nil {
				t.Errorf("%s+%s must be rejected", a, b)
				continue
			}
			if !strings.Contains(err.Error(), "mutually exclusive") {
				t.Errorf("%s+%s error %q should name the exclusivity rule", a, b, err)
			}
		}
	}

	for name, set := range setters {
		c := baseConfig()
		c.Mode = mcrtest.Mode(2, 2, 1)
		set(&c)
		if c.Validate() == nil {
			t.Errorf("%s + MCR mode must be rejected", name)
		}
		c = baseConfig()
		c.Layout = mcr.LayoutOf(mcrtest.Mode(4, 4, 1))
		set(&c)
		if c.Validate() == nil {
			t.Errorf("%s + combined layout must be rejected", name)
		}
	}
}

// TestNewRejectsConflictingConfig: the constructor path (what dram.New
// delegates to) refuses a conflicting selection rather than silently
// picking one backend.
func TestNewRejectsConflictingConfig(t *testing.T) {
	c := baseConfig()
	setTL(&c)
	setCLR(&c)
	if _, err := New(c); err == nil {
		t.Fatal("New must reject two comparator backends")
	}
}

// TestNewSelectsDeclaredBackend: each selection constructs the matching
// mechanism.
func TestNewSelectsDeclaredBackend(t *testing.T) {
	cases := []struct {
		want string
		mut  func(*Config)
	}{
		{"mcr", func(c *Config) { c.Mode = mcrtest.Mode(2, 2, 1) }},
		{"tldram", setTL},
		{"nuat", setNUAT},
		{"clr", setCLR},
	}
	for _, tc := range cases {
		c := baseConfig()
		tc.mut(&c)
		m, err := New(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if m.Name() != tc.want {
			t.Fatalf("New selected %q, want %q", m.Name(), tc.want)
		}
	}
}

// TestComparatorRejectsNonFinite: every float field of the TL, NUAT and
// CLR configurations refuses NaN and ±Inf, in Validate and in New. A
// range check written as `x <= lo || x > hi` lets NaN through; a NaN
// coupled fraction, for one, truncates to a zero pair budget and
// silently disables CLR.
func TestComparatorRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tl := func(f func(*TLConfig)) func(*Config) {
		return func(c *Config) { setTL(c); f(c.TL) }
	}
	nuat := func(f func(*NUATConfig)) func(*Config) {
		return func(c *Config) { setNUAT(c); f(c.NUAT) }
	}
	clr := func(f func(*CLRConfig)) func(*Config) {
		return func(c *Config) { setCLR(c); f(c.CLR) }
	}
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"tl/NearRegion=NaN", tl(func(v *TLConfig) { v.NearRegion = nan })},
		{"tl/NearTRCDNS=+Inf", tl(func(v *TLConfig) { v.NearTRCDNS = inf })},
		{"tl/NearTRASNS=NaN", tl(func(v *TLConfig) { v.NearTRASNS = nan })},
		{"tl/FarTRCDPenaltyNS=NaN", tl(func(v *TLConfig) { v.FarTRCDPenaltyNS = nan })},
		{"tl/FarTRASPenaltyNS=+Inf", tl(func(v *TLConfig) { v.FarTRASPenaltyNS = inf })},
		{"nuat/MinLevel=NaN", nuat(func(v *NUATConfig) { v.MinLevel = nan })},
		{"clr/MaxCoupledFraction=NaN", clr(func(v *CLRConfig) { v.MaxCoupledFraction = nan })},
		{"clr/ConvertOverheadNS=+Inf", clr(func(v *CLRConfig) { v.ConvertOverheadNS = inf })},
		{"clr/TRCDNS=NaN", clr(func(v *CLRConfig) { v.TRCDNS = nan })},
		{"clr/TRASNS=+Inf", clr(func(v *CLRConfig) { v.TRASNS = inf })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := baseConfig()
			tc.set(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate accepted the value")
			}
			if _, err := New(c); err == nil {
				t.Error("New accepted the value")
			}
		})
	}
}
