package rat

import (
	"strings"
	"testing"
)

// FuzzParseRat hardens Parse against hostile input: whatever the bytes,
// Parse must either return a usable rational or a descriptive error —
// never panic, never return a nil value without an error, and every
// accepted value must round-trip through its canonical rendering.
func FuzzParseRat(f *testing.F) {
	for _, seed := range []string{
		"", "/", "3", "-3", "+3", "3/4", "-3/4", "3/-4", "0.25", ".5",
		"1/0", "0/0", "-1/0", "1/", "/2", "3/4/5", "1e3", "1.5e2", "0x10",
		" 3", "3 ", "nan", "Inf", "--1", "9999999999999999999999/7",
		"1/00", "0_1", "１/２",
		"010/1", "1/010", "0x10/3", "1_0/3", "0b11/1", "1e999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			if r != nil {
				t.Fatalf("Parse(%q) returned both a value and error %v", s, err)
			}
			return
		}
		if r == nil {
			t.Fatalf("Parse(%q) returned nil without an error", s)
		}
		if r.Denom().Sign() == 0 {
			t.Fatalf("Parse(%q) produced a zero denominator", s)
		}
		// Canonical round trip: RatString always re-parses to the same
		// value.
		back, err := Parse(r.RatString())
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not re-parse: %v", s, r.RatString(), err)
		}
		if back.Cmp(r) != 0 {
			t.Fatalf("round trip of Parse(%q) changed the value: %s vs %s",
				s, r.RatString(), back.RatString())
		}
	})
}

// TestParseRejections pins the specific error messages the fuzz target
// can only prove are non-panicking.
func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"":      "empty string",
		"/":     "neither numerator nor denominator",
		"3/":    "missing its denominator",
		"/4":    "missing its numerator",
		"3/0":   "zero denominator",
		"-3/0":  "zero denominator",
		"0/0":   "zero denominator",
		"x":     "cannot parse",
		"3/4/5": "cannot parse",
		// Exponents, base prefixes, digit separators, signs on the
		// denominator and spaces are not rationals as documented; an
		// exponent would also let 8 bytes expand to millions of bits.
		"1e999999": "cannot parse",
		"1e3":      "cannot parse",
		"1.5e2":    "cannot parse",
		"0x10":     "cannot parse",
		"0x10/3":   "cannot parse",
		"1_0/3":    "cannot parse",
		"0b11/1":   "cannot parse",
		"3/-4":     "cannot parse",
		"+-3":      "cannot parse",
		".":        "cannot parse",
		"-":        "cannot parse",
		" 3":       "cannot parse",
	}
	for in, want := range cases {
		r, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) = %s, want error containing %q", in, r.RatString(), want)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %q, want it to contain %q", in, err, want)
		}
	}
}
