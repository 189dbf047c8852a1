// Package rat provides exact rational arithmetic helpers on top of
// math/big.Rat.
//
// Every quantity in this repository — link costs, LP coefficients,
// steady-state throughputs, schedule slot lengths — is an exact rational.
// The steady-state construction of Legrand/Marchal/Robert depends on exact
// arithmetic: the periodic schedule's period is the least common multiple of
// the denominators of the LP solution, which is meaningless under floating
// point. This package gathers the small set of operations the rest of the
// code needs so that call sites stay readable.
package rat

import (
	"fmt"
	"math/big"
	"strings"
)

// Rat is an exact rational number. It aliases *big.Rat; a nil Rat is not
// valid. Use the constructors in this package.
type Rat = *big.Rat

// New returns the rational n/d. It panics if d == 0.
func New(n, d int64) Rat {
	if d == 0 {
		panic("rat: zero denominator")
	}
	return big.NewRat(n, d)
}

// Int returns the rational n/1.
func Int(n int64) Rat { return big.NewRat(n, 1) }

// Zero returns a fresh rational equal to 0.
func Zero() Rat { return new(big.Rat) }

// One returns a fresh rational equal to 1.
func One() Rat { return big.NewRat(1, 1) }

// Copy returns an independent copy of x.
func Copy(x Rat) Rat { return new(big.Rat).Set(x) }

// Add returns x + y as a fresh rational.
func Add(x, y Rat) Rat { return new(big.Rat).Add(x, y) }

// Sub returns x - y as a fresh rational.
func Sub(x, y Rat) Rat { return new(big.Rat).Sub(x, y) }

// Mul returns x * y as a fresh rational.
func Mul(x, y Rat) Rat { return new(big.Rat).Mul(x, y) }

// Div returns x / y as a fresh rational. It panics if y == 0.
func Div(x, y Rat) Rat {
	if y.Sign() == 0 {
		panic("rat: division by zero")
	}
	return new(big.Rat).Quo(x, y)
}

// Neg returns -x as a fresh rational.
func Neg(x Rat) Rat { return new(big.Rat).Neg(x) }

// Inv returns 1/x as a fresh rational. It panics if x == 0.
func Inv(x Rat) Rat {
	if x.Sign() == 0 {
		panic("rat: inverse of zero")
	}
	return new(big.Rat).Inv(x)
}

// Eq reports whether x == y.
func Eq(x, y Rat) bool { return x.Cmp(y) == 0 }

// Less reports whether x < y.
func Less(x, y Rat) bool { return x.Cmp(y) < 0 }

// IsZero reports whether x == 0.
func IsZero(x Rat) bool { return x.Sign() == 0 }

// Min returns the smaller of x and y (a fresh copy).
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return Copy(x)
	}
	return Copy(y)
}

// MaxOf returns the maximum of xs. It panics on an empty slice.
func MaxOf(xs ...Rat) Rat {
	if len(xs) == 0 {
		panic("rat: MaxOf of empty slice")
	}
	m := Copy(xs[0])
	for _, x := range xs[1:] {
		if x.Cmp(m) > 0 {
			m.Set(x)
		}
	}
	return m
}

// gcdInt returns gcd(|a|, |b|) over big.Int.
func gcdInt(a, b *big.Int) *big.Int {
	return new(big.Int).GCD(nil, nil, new(big.Int).Abs(a), new(big.Int).Abs(b))
}

// lcmInt returns lcm(|a|, |b|) over big.Int. lcm(0, x) is defined as x so
// that folding over a list with zeros present behaves sensibly.
func lcmInt(a, b *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int).Abs(b)
	}
	if b.Sign() == 0 {
		return new(big.Int).Abs(a)
	}
	g := gcdInt(a, b)
	q := new(big.Int).Div(new(big.Int).Abs(a), g)
	return q.Mul(q, new(big.Int).Abs(b))
}

// DenominatorLCM returns the least common multiple of the denominators of
// xs, as a big.Int. For an empty slice it returns 1. This is the period
// computation of the paper: multiplying every variable of a rational LP
// solution by the LCM of all denominators yields an all-integer solution.
func DenominatorLCM(xs ...Rat) *big.Int {
	l := big.NewInt(1)
	for _, x := range xs {
		l = lcmInt(l, x.Denom())
	}
	return l
}

// ScaleToInt multiplies x by the integer scale and returns the result as a
// big.Int. It panics if the product is not an integer — callers use it only
// after computing scale = DenominatorLCM(...).
func ScaleToInt(x Rat, scale *big.Int) *big.Int {
	p := new(big.Rat).Mul(x, new(big.Rat).SetInt(scale))
	if !p.IsInt() {
		panic(fmt.Sprintf("rat: %s * %s is not an integer", x.RatString(), scale.String()))
	}
	return new(big.Int).Set(p.Num())
}

// Float returns x as a float64 (for reporting only; may round).
func Float(x Rat) float64 {
	f, _ := x.Float64()
	return f
}

// Parse parses a rational from a string: an optional sign and decimal
// digits, then optionally "/" and the decimal digits of the denominator,
// or "." and decimal digits — "3", "-3", "+3", "3/4", "0.25" and ".5"
// (decimal expansions are converted exactly). Both sides of a fraction
// are read in base 10, so "010/1" is 10 as "010" is. Everything else is
// rejected as unparsable: exponents, base prefixes, digit separators and
// spaces. Empty strings, fractions with a missing side ("/", "3/", "/4")
// and zero denominators are rejected with specific errors.
func Parse(s string) (Rat, error) {
	if s == "" {
		return nil, fmt.Errorf("rat: empty string is not a rational")
	}
	sign, mag := "", s
	if s[0] == '+' || s[0] == '-' {
		sign, mag = s[:1], s[1:]
	}
	num, den := mag, "1"
	if n, d, ok := strings.Cut(mag, "/"); ok {
		switch {
		case n == "" && d == "":
			return nil, fmt.Errorf("rat: %q has neither numerator nor denominator", s)
		case n == "":
			return nil, fmt.Errorf("rat: %q is missing its numerator", s)
		case d == "":
			return nil, fmt.Errorf("rat: %q is missing its denominator", s)
		}
		num, den = n, d
	} else if whole, frac, ok := strings.Cut(mag, "."); ok {
		num, den = whole+frac, "1"+strings.Repeat("0", len(frac))
	}
	if num == "" || !decimal(num) || !decimal(den) {
		return nil, fmt.Errorf("rat: cannot parse %q as a rational", s)
	}
	n, _ := new(big.Int).SetString(sign+num, 10)
	d, _ := new(big.Int).SetString(den, 10)
	if d.Sign() == 0 {
		return nil, fmt.Errorf("rat: %q has a zero denominator", s)
	}
	return new(big.Rat).SetFrac(n, d), nil
}

// decimal reports whether s holds only the digits 0–9.
func decimal(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Clone returns a deep copy of xs.
func Clone(xs []Rat) []Rat {
	out := make([]Rat, len(xs))
	for i, x := range xs {
		out[i] = Copy(x)
	}
	return out
}
