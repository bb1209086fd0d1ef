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

// WriteResultJSON writes r as indented JSON to w; absent statistics
// are null (see Result.MarshalJSON).
func WriteResultJSON(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Stat is a float64 statistic on the wire: a finite value encodes as
// encoding/json writes a float64, an absent one (NaN, or any other
// non-finite value JSON cannot carry) as null.
type Stat float64

// Absent reports whether v is not finite.
func (v Stat) Absent() bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) }

// MarshalJSON implements json.Marshaler.
func (v Stat) MarshalJSON() ([]byte, error) {
	if v.Absent() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

// resultWire is Result with every float64 field retyped Stat: the same
// fields in the same order, so a Result with no absent statistic
// encodes byte for byte as the plain struct would.
var resultWire = func() reflect.Type {
	t := reflect.TypeOf(Result{})
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
		if fields[i].Type.Kind() == reflect.Float64 {
			fields[i].Type = reflect.TypeOf(Stat(0))
		}
	}
	return reflect.StructOf(fields)
}()

// MarshalJSON writes r with its absent statistics as null.
func (r Result) MarshalJSON() ([]byte, error) {
	rv, wv := reflect.ValueOf(r), reflect.New(resultWire).Elem()
	for i := range rv.NumField() {
		wv.Field(i).Set(rv.Field(i).Convert(resultWire.Field(i).Type))
	}
	return json.Marshal(wv.Interface())
}

// UnmarshalJSON reads r and re-derives its absent statistics from the
// rule on Result, so a record that carries zeros in their place (as
// cache files once did, beside a list of the NaN fields) decodes to the
// same Result as one that carries nulls.
func (r *Result) UnmarshalJSON(data []byte) error {
	type plain Result
	if err := json.Unmarshal(data, (*plain)(r)); err != nil {
		return err
	}
	r.MarkAbsent()
	return nil
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
