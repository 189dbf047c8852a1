package rat

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewAndInt(t *testing.T) {
	if got := New(3, 4).RatString(); got != "3/4" {
		t.Errorf("New(3,4) = %s, want 3/4", got)
	}
	if got := Int(-7).RatString(); got != "-7" {
		t.Errorf("Int(-7) = %s, want -7", got)
	}
}

func TestNewPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmetic(t *testing.T) {
	a, b := New(1, 3), New(1, 6)
	cases := []struct {
		name string
		got  Rat
		want string
	}{
		{"add", Add(a, b), "1/2"},
		{"sub", Sub(a, b), "1/6"},
		{"mul", Mul(a, b), "1/18"},
		{"div", Div(a, b), "2"},
		{"neg", Neg(a), "-1/3"},
		{"inv", Inv(a), "3"},
	}
	for _, c := range cases {
		if c.got.RatString() != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got.RatString(), c.want)
		}
	}
}

func TestArithmeticDoesNotAliasOperands(t *testing.T) {
	a, b := New(1, 3), New(1, 6)
	_ = Add(a, b)
	_ = Sub(a, b)
	_ = Mul(a, b)
	_ = Div(a, b)
	if a.RatString() != "1/3" || b.RatString() != "1/6" {
		t.Errorf("operands mutated: a=%s b=%s", a.RatString(), b.RatString())
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(One(), Zero())
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(Zero())
}

func TestComparisons(t *testing.T) {
	a, b := New(1, 2), New(2, 3)
	if !Less(a, b) || Less(b, a) {
		t.Error("Less(1/2, 2/3) wrong")
	}
	if !Eq(a, New(2, 4)) {
		t.Error("Eq(1/2, 2/4) should be true")
	}
	if !IsZero(Zero()) || IsZero(One()) {
		t.Error("IsZero wrong")
	}
}

func TestMinMax(t *testing.T) {
	a, b := New(1, 2), New(2, 3)
	if !Eq(Min(a, b), a) || !Eq(MaxOf(a, b), b) {
		t.Error("Min/MaxOf wrong")
	}
	// Results must be fresh copies.
	m := Min(a, b)
	m.SetInt64(99)
	if !Eq(a, New(1, 2)) {
		t.Error("Min aliases its argument")
	}
}

func TestSumAndFolds(t *testing.T) {
	if !Eq(MaxOf(New(3, 1), New(1, 2), New(2, 3)), Int(3)) {
		t.Error("MaxOf wrong")
	}
	if !Eq(MaxOf(New(-1, 2)), New(-1, 2)) {
		t.Error("MaxOf of one element wrong")
	}
	xs := []Rat{New(1, 2), New(5, 2)}
	m := MaxOf(xs...)
	m.SetInt64(99)
	if !Eq(xs[1], New(5, 2)) {
		t.Error("MaxOf aliases its argument")
	}
	defer func() {
		if recover() == nil {
			t.Error("MaxOf of no elements should panic")
		}
	}()
	MaxOf()
}

func TestDenominatorLCM(t *testing.T) {
	cases := []struct {
		xs   []Rat
		want int64
	}{
		{nil, 1},
		{[]Rat{Int(5)}, 1},
		{[]Rat{New(1, 2), New(1, 3)}, 6},
		{[]Rat{New(1, 4), New(1, 6), New(5, 9)}, 36},
		{[]Rat{New(3, 12)}, 4}, // 3/12 normalizes to 1/4
	}
	for _, c := range cases {
		got := DenominatorLCM(c.xs...)
		if got.Int64() != c.want {
			t.Errorf("DenominatorLCM(%v) = %s, want %d", c.xs, got, c.want)
		}
	}
}

func TestScaleToInt(t *testing.T) {
	x := New(5, 6)
	got := ScaleToInt(x, big.NewInt(12))
	if got.Int64() != 10 {
		t.Errorf("ScaleToInt(5/6, 12) = %s, want 10", got)
	}
}

func TestScaleToIntPanicsOnNonInteger(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleToInt(1/3, 2) did not panic")
		}
	}()
	ScaleToInt(New(1, 3), big.NewInt(2))
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"3", "3", true},
		{"-3", "-3", true},
		{"+3", "3", true},
		{"3/4", "3/4", true},
		{"-3/4", "-3/4", true},
		{"0.25", "1/4", true},
		{".5", "1/2", true},
		{"-.5", "-1/2", true},
		// Both sides of a fraction are decimal, leading zeros included.
		{"010", "10", true},
		{"010/1", "10", true},
		{"1/010", "1/10", true},
		{"08/1", "8", true},
		{"x", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) error = %v, ok expectation %v", c.in, err, c.ok)
			continue
		}
		if c.ok && got.RatString() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got.RatString(), c.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse(garbage) did not panic")
		}
	}()
	MustParse("not-a-rational")
}

func TestClone(t *testing.T) {
	xs := []Rat{Int(3), New(1, 2), Int(-1)}
	cl := Clone(xs)
	for i, x := range xs {
		if !Eq(cl[i], x) {
			t.Errorf("Clone[%d] = %s, want %s", i, cl[i].RatString(), x.RatString())
		}
	}
	// Clone must be deep: mutate clone, original unchanged.
	cl[0].SetInt64(100)
	if xs[0].RatString() == "100" || xs[1].RatString() == "100" || xs[2].RatString() == "100" {
		t.Error("Clone is not deep")
	}
}

// Property: DenominatorLCM really clears all denominators.
func TestPropertyDenominatorLCMClears(t *testing.T) {
	f := func(n1, n2, n3 int32, d1, d2, d3 uint8) bool {
		xs := []Rat{
			New(int64(n1), int64(d1)+1),
			New(int64(n2), int64(d2)+1),
			New(int64(n3), int64(d3)+1),
		}
		l := DenominatorLCM(xs...)
		for _, x := range xs {
			p := new(big.Rat).Mul(x, new(big.Rat).SetInt(l))
			if !p.IsInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Min/MaxOf bracket both operands.
func TestPropertyMinMax(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Int(int64(a)), Int(int64(b))
		mn, mx := Min(x, y), MaxOf(x, y)
		return !Less(x, mn) && !Less(y, mn) && !Less(mx, x) && !Less(mx, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
