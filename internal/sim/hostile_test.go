package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
)

// hostileValues are set, one at a time, into every numeric leaf of the
// configuration. Integer leaves skip NaN and ±Inf, unsigned ones −1 too.
var hostileValues = []float64{0, -1, 1, 1 << 40, math.NaN(), math.Inf(1), math.Inf(-1)}

// hostileBase is the configuration the sweep corrupts: a short tigr run
// with the integrity checker, fault injection and resilience filled in,
// so their leaves are swept too, on the given backend.
func hostileBase(backend func(*dram.Config)) Config {
	cfg := DefaultConfig("tigr")
	cfg.InstsPerCore = 2000
	cfg.DRAM = dram.DefaultConfig(mcrtest.Mode(4, 4, 1))
	backend(&cfg.DRAM)
	ic := integrity.DefaultConfig()
	cfg.Integrity = &ic
	cfg.Fault = &fault.Config{WeakFraction: 1e-3, TailMinFrac: 5e-4, TailMaxFrac: 5e-3}
	cfg.Resilience = &ResilienceConfig{DowngradeAfter: 4, Quarantine: true}
	return cfg
}

// numericLeaves visits the path (field indices, through non-nil pointers),
// name and kind of every exported integer or float field under v.
func numericLeaves(v reflect.Value, path []int, name string, visit func(path []int, name string, kind reflect.Kind)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			numericLeaves(v.Elem(), path, name, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				numericLeaves(v.Field(i), append(path[:len(path):len(path)], i), name+"."+f.Name, visit)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		visit(path, name, v.Kind())
	}
}

// leaf follows path from cfg to the field it names.
func leaf(cfg *Config, path []int) reflect.Value {
	v := reflect.ValueOf(cfg).Elem()
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return v
}

// TestHostileConfigSweep: every numeric leaf of Config, set to each of
// hostileValues on each backend, is either refused by NewSim or runs a
// short budget to a finite Result that JSON-marshals, within a deadline.
// A value that hangs the run, trips its runaway guard or yields a NaN
// fails here. The leaves are found by reflection, so a new field is swept
// without an edit to this test. An out-of-range enum still runs to a
// finite Result, so the enum rows of the Validate tests pin those.
func TestHostileConfigSweep(t *testing.T) {
	const deadline = 5 * time.Second
	backends := []struct {
		name string
		set  func(*dram.Config)
	}{
		{"mcr", func(*dram.Config) {}},
		{"tl", func(c *dram.Config) {
			v := mech.DefaultTLConfig()
			*c = dram.DefaultConfig(mcrtest.Mode(1, 1, 0))
			c.TL = &v
		}},
		{"nuat", func(c *dram.Config) {
			v := mech.DefaultNUATConfig()
			*c = dram.DefaultConfig(mcrtest.Mode(1, 1, 0))
			c.NUAT = &v
		}},
		{"clr", func(c *dram.Config) {
			v := mech.DefaultCLRConfig()
			*c = dram.DefaultConfig(mcrtest.Mode(1, 1, 0))
			c.CLR = &v
		}},
	}
	var cases, rejected atomic.Int64
	start := time.Now()
	t.Run("cases", func(t *testing.T) {
		for _, b := range backends {
			base := hostileBase(b.set)
			if _, err := NewSim(base); err != nil {
				t.Fatalf("%s: the uncorrupted configuration is refused: %v", b.name, err)
			}
			numericLeaves(reflect.ValueOf(base), nil, "", func(path []int, name string, kind reflect.Kind) {
				for _, x := range hostileValues {
					isFloat := kind == reflect.Float32 || kind == reflect.Float64
					isUint := kind >= reflect.Uint && kind <= reflect.Uint64
					if !isFloat && (math.IsNaN(x) || math.IsInf(x, 0)) || isUint && x < 0 {
						continue
					}
					t.Run(fmt.Sprintf("%s%s=%v", b.name, name, x), func(t *testing.T) {
						t.Parallel()
						cases.Add(1)
						cfg := hostileBase(b.set)
						switch f := leaf(&cfg, path); {
						case isFloat:
							f.SetFloat(x)
						case isUint:
							f.SetUint(uint64(x))
						default:
							f.SetInt(int64(x))
						}
						s, err := NewSim(cfg)
						if err != nil {
							rejected.Add(1)
							return
						}
						ctx, cancel := context.WithTimeout(context.Background(), deadline)
						defer cancel()
						res, err := s.Run(ctx)
						if err != nil {
							t.Fatalf("accepted, then the run failed: %v", err)
						}
						if _, err := json.Marshal(res); err != nil {
							t.Fatalf("accepted, then the result does not marshal: %v", err)
						}
					})
				}
			})
		}
	})
	t.Logf("%d cases, %d refused by NewSim, in %v", cases.Load(), rejected.Load(), time.Since(start).Round(time.Millisecond))
}
