package mcr

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestModeValidate(t *testing.T) {
	valid := []Mode{
		Off(),
		{K: 2, M: 1, Region: 0.25},
		{K: 2, M: 2, Region: 1},
		{K: 4, M: 1, Region: 0.5},
		{K: 4, M: 2, Region: 0.75},
		{K: 4, M: 4, Region: 1},
	}
	for _, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("%v should validate: %v", m, err)
		}
	}
	invalid := []Mode{
		{K: 3, M: 1, Region: 0.5}, // K not 1/2/4
		{K: 8, M: 8, Region: 1},   // K too large
		{K: 4, M: 3, Region: 0.5}, // M not a power of two
		{K: 4, M: 8, Region: 0.5}, // M > K
		{K: 2, M: 0, Region: 0.5}, // M < 1
		{K: 2, M: 2, Region: 0.3}, // region not a quarter
		{K: 1, M: 1, Region: 0.5}, // 1x must have empty region
		{K: 2, M: 2, Region: 0},   // enabled mode with empty region
	}
	for _, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v should be rejected", m)
		}
	}
}

func TestModeString(t *testing.T) {
	if got := mustMode(2, 4/2, 0.75).String(); got != "mode [2/2x/75%reg]" {
		t.Fatalf("String() = %q", got)
	}
	if got := Off().String(); got != "mode [off]" {
		t.Fatalf("Off().String() = %q", got)
	}
}

func TestModeHelpers(t *testing.T) {
	m := mustMode(4, 2, 1)
	if !m.Enabled() {
		t.Fatal("4x mode must be enabled")
	}
	if Off().Enabled() {
		t.Fatal("off mode must be disabled")
	}
}

func TestNewModeRejects(t *testing.T) {
	if _, err := NewMode(5, 1, 0.5); err == nil {
		t.Fatal("K=5 must be rejected")
	}
}

func TestMustModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustMode must panic on invalid input")
		}
	}()
	mustMode(3, 1, 0.5)
}

// encodeMR3 packs a mode into the reserved MR3 field the paper proposes:
// bits [1:0] log2(K), bits [3:2] log2(K/M), bits [6:4] region in quarters.
func encodeMR3(m Mode) (uint16, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	lgK := uint16(bits.TrailingZeros(uint(m.K)))
	lgSkip := uint16(0)
	for v := m.K / m.M; v > 1; v >>= 1 {
		lgSkip++
	}
	quarters := uint16(m.Region*4 + 0.5)
	return lgK | lgSkip<<2 | quarters<<4, nil
}

// decodeMR3 unpacks an encodeMR3 value back into a Mode.
func decodeMR3(field uint16) (Mode, error) {
	k := 1 << (field & 3)
	skip := 1 << (field >> 2 & 3)
	region := float64(field>>4&7) / 4
	m := Mode{K: k, M: k / skip, Region: region}
	if err := m.Validate(); err != nil {
		return Mode{}, fmt.Errorf("mcr: invalid encoded mode %#x: %w", field, err)
	}
	return m, nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	modes := []Mode{
		{K: 2, M: 1, Region: 0.25}, {K: 2, M: 2, Region: 0.5},
		{K: 4, M: 1, Region: 0.75}, {K: 4, M: 2, Region: 1}, {K: 4, M: 4, Region: 0.25},
	}
	for _, m := range modes {
		bits, err := encodeMR3(m)
		if err != nil {
			t.Fatalf("encodeMR3(%v): %v", m, err)
		}
		got, err := decodeMR3(bits)
		if err != nil {
			t.Fatalf("decodeMR3(%#x): %v", bits, err)
		}
		if got != m {
			t.Errorf("round trip %v -> %#x -> %v", m, bits, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// lgK=3 (K=8) is out of the supported range.
	if _, err := decodeMR3(0b0000011); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestModeRegister(t *testing.T) {
	r := NewModeRegister()
	if r.Mode() != Off() {
		t.Fatal("register must start disabled")
	}
	g0 := r.Generation()
	m := mustMode(4, 4, 1)
	if err := r.Set(m); err != nil {
		t.Fatal(err)
	}
	if r.Mode() != m {
		t.Fatal("Set must store the mode")
	}
	if r.Generation() != g0+1 {
		t.Fatal("Set must bump the generation")
	}
	if err := r.Set(Mode{K: 3}); err == nil {
		t.Fatal("invalid MRS must be rejected")
	}
	if r.Mode() != m {
		t.Fatal("rejected MRS must not clobber the mode")
	}
}

// Property: every valid mode round-trips through the MR3 encoding.
func TestEncodeDecodeQuick(t *testing.T) {
	ks := []int{2, 4}
	regions := []float64{0.25, 0.5, 0.75, 1}
	err := quick.Check(func(ki, mi, ri uint8) bool {
		k := ks[int(ki)%len(ks)]
		m := 1 << (int(mi) % (k/2 + 1)) // 1..K in powers of two
		if m > k {
			m = k
		}
		mode := Mode{K: k, M: m, Region: regions[int(ri)%len(regions)]}
		bits, err := encodeMR3(mode)
		if err != nil {
			return false
		}
		got, err := decodeMR3(bits)
		return err == nil && got == mode
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// mustMode builds a validated mode for constant test configurations,
// failing the build of the test fixture immediately on a typo.
func mustMode(k, m int, region float64) Mode {
	md, err := NewMode(k, m, region)
	if err != nil {
		panic(err)
	}
	return md
}
