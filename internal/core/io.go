package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
)

// JSON encoding of scenarios and results, so runs can be scripted and
// archived: nocsim -json emits a Result document, and scenario files
// can drive batch experiments.

// MarshalScenario renders s as indented JSON.
func MarshalScenario(s Scenario) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// UnmarshalScenario parses a scenario from JSON, filling unset fields
// with NewScenario defaults (so a file may specify only what differs).
func UnmarshalScenario(data []byte) (Scenario, error) {
	base := NewScenario(Spidergon, 16, UniformTraffic, 0.01)
	if err := json.Unmarshal(data, &base); err != nil {
		return Scenario{}, fmt.Errorf("core: parsing scenario: %w", err)
	}
	if err := base.Validate(); err != nil {
		return Scenario{}, err
	}
	return base, nil
}

// WriteResultJSON writes r as indented JSON to w. A statistic with no
// samples is NaN (the latency of a run that ejected nothing), which
// JSON cannot represent: every non-finite float field is written as
// null instead. A result whose fields are all finite is encoded as is.
func WriteResultJSON(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if v, ok := nullNonFinite(r); ok {
		return enc.Encode(v)
	}
	return enc.Encode(r)
}

// nullNonFinite reports whether r holds a non-finite float field and,
// if so, returns r as a value of an equivalent struct type whose
// float64 fields are *float64, nil where r's value is non-finite.
// encoding/json writes a nil pointer as null and a non-nil one exactly
// like the float itself, so every other byte matches the plain encoding.
func nullNonFinite(r Result) (any, bool) {
	rv := reflect.ValueOf(r)
	rt := rv.Type()
	nonFinite := false
	fields := make([]reflect.StructField, rt.NumField())
	for i := range fields {
		fields[i] = rt.Field(i)
		if fields[i].Type.Kind() == reflect.Float64 {
			fields[i].Type = reflect.PointerTo(fields[i].Type)
			if x := rv.Field(i).Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				nonFinite = true
			}
		}
	}
	if !nonFinite {
		return nil, false
	}
	out := reflect.New(reflect.StructOf(fields)).Elem()
	for i := range fields {
		f := rv.Field(i)
		if f.Kind() != reflect.Float64 {
			out.Field(i).Set(f)
		} else if x := f.Float(); !math.IsNaN(x) && !math.IsInf(x, 0) {
			out.Field(i).Set(reflect.ValueOf(&x))
		}
	}
	return out.Interface(), true
}

// ReadScenarios parses a JSON document holding either one scenario
// object or an array of them.
func ReadScenarios(data []byte) ([]Scenario, error) {
	trimmed := firstNonSpace(data)
	if trimmed == '[' {
		var raw []json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("core: parsing scenario list: %w", err)
		}
		out := make([]Scenario, 0, len(raw))
		for i, r := range raw {
			s, err := UnmarshalScenario(r)
			if err != nil {
				return nil, fmt.Errorf("core: scenario %d: %w", i, err)
			}
			out = append(out, s)
		}
		return out, nil
	}
	s, err := UnmarshalScenario(data)
	if err != nil {
		return nil, err
	}
	return []Scenario{s}, nil
}

func firstNonSpace(data []byte) byte {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		default:
			return b
		}
	}
	return 0
}

// FindSaturation locates the measured saturation rate of a scenario
// family: the largest per-source λ (packets/cycle) at which accepted
// load still tracks offered load within tol (e.g. 0.05 = 5%). It
// bisects between 0 and hi over `iters` refinements, running one
// simulation per probe, and returns the bracketing rate. The measured
// knee is the empirical counterpart of the analytic bounds in package
// analysis, and locates the latency walls of Figures 7, 9 and 11.
func FindSaturation(base Scenario, hi float64, tol float64, iters int) (float64, error) {
	if hi <= 0 || tol <= 0 || iters < 1 {
		return 0, fmt.Errorf("core: invalid saturation search parameters")
	}
	sustains := func(lambda float64) (bool, error) {
		s := base
		s.Lambda = lambda
		r, err := Run(s)
		if err != nil {
			return false, err
		}
		if r.OfferedFlitRate == 0 {
			return true, nil
		}
		return r.Throughput >= (1-tol)*r.OfferedFlitRate, nil
	}
	lo := 0.0
	// If even hi sustains, report hi (caller chose the cap).
	ok, err := sustains(hi)
	if err != nil {
		return 0, err
	}
	if ok {
		return hi, nil
	}
	cur := hi
	for i := 0; i < iters; i++ {
		mid := (lo + cur) / 2
		ok, err := sustains(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			cur = mid
		}
	}
	return lo, nil
}
