// Package lp implements an exact linear-programming solver over the
// rational numbers.
//
// The steady-state framework of Legrand/Marchal/Robert expresses the optimal
// throughput of a pipelined collective as the optimum of a linear program
// "solved in rational numbers" (the paper uses lpsolve or Maple). The
// periodic-schedule construction then multiplies the solution by the least
// common multiple of its denominators, so the solver must be exact: a
// floating-point optimum cannot be turned into an integer period. Since the
// module is stdlib-only (no cgo wrapping of GLPK/lp_solve), this package
// provides a self-contained primal simplex over big.Int/big.Rat:
//
//   - Model: named variables (all ≥ 0, optional upper bounds), linear
//     constraints with ≤ / = / ≥ senses, and a linear objective. Constraints
//     are stored as sorted sparse (Var, coeff) vectors — Expr merges
//     duplicate variables as it is built — and Stats reports the model's
//     nonzero count and density.
//   - SolveCtx: two-phase primal simplex. Pivoting uses Dantzig's rule and
//     falls back to Bland's rule (which provably terminates) when the
//     iteration count suggests cycling. The context cancels the solve
//     between pivots and may offer a warm-start basis (WithWarmBasis).
//   - Verify: independent feasibility check of a solution against the model,
//     used by tests and callers to guard against solver defects.
//
// # Tableau representation
//
// The simplex tableau stores rows fraction-free as integer numerators over
// one positive per-row denominator, re-normalized by their content gcd
// after every pivot. Production solves run on one representation, the
// sparse tableau (sparse.go): each row keeps only its nonzero entries as
// parallel (column, numerator) slices sorted by column. The steady-state
// LPs are extremely sparse — a one-port or compute row touches only a
// node's incident edges, a conservation row only one commodity's
// variables around one node — so pivots cost O(nnz) big.Int
// multiplications instead of O(columns). Composite solves, whose variable
// counts multiply by the member count, win the most.
//
// A dense reference tableau, each row a full integer vector, lives in the
// package's tests (dense_test.go) behind the same tableau interface. Tests
// select it with WithDenseTableau, which only the package's test binary
// can see, and require the exact same pivot sequence from both: solutions,
// pivot counts and objective values are bit-identical. The dense/sparse
// ablation benchmarks live there too.
package lp

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/rat"
)

// Sense is the comparison sense of a linear constraint.
type Sense int

const (
	// Leq constrains expr ≤ rhs.
	Leq Sense = iota
	// Eq constrains expr = rhs.
	Eq
	// Geq constrains expr ≥ rhs.
	Geq
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case Leq:
		return "<="
	case Eq:
		return "="
	case Geq:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Var identifies a variable within a Model.
type Var int

// Term is a coefficient applied to a variable in a linear expression.
type Term struct {
	Var   Var
	Coeff rat.Rat
}

// Expr is a linear expression: a sum of terms, kept as a sparse vector
// sorted by variable with at most one term per variable and no zero
// coefficients. Plus and Minus maintain the invariant by merging into an
// existing term instead of appending a duplicate, so an expression built
// term by term is already the sparse constraint row the solver stores —
// x + x is 2x, and a coefficient that cancels to zero drops out.
type Expr []Term

// NewExpr returns an empty expression.
func NewExpr() Expr { return nil }

// Plus adds coeff·v to the expression and returns the extended expression
// (builder style). A term for v already present absorbs the coefficient.
func (e Expr) Plus(coeff rat.Rat, v Var) Expr {
	if coeff.Sign() == 0 {
		return e
	}
	// Fast path: rows are usually built in increasing variable order, so
	// the new term lands at the end. The capacity-capped append forces a
	// fresh backing array, so two expressions derived from one shared
	// prefix can never clobber each other's appended terms.
	if n := len(e); n == 0 || e[n-1].Var < v {
		return append(e[:n:n], Term{Var: v, Coeff: rat.Copy(coeff)})
	}
	i := sort.Search(len(e), func(i int) bool { return e[i].Var >= v })
	if i < len(e) && e[i].Var == v {
		// Merge, never mutating the shared coefficient in place: the terms
		// of an Expr may be aliased by expressions derived from it.
		sum := rat.Add(e[i].Coeff, coeff)
		out := append(Expr(nil), e...)
		if sum.Sign() == 0 {
			return append(out[:i], out[i+1:]...)
		}
		out[i] = Term{Var: v, Coeff: sum}
		return out
	}
	out := make(Expr, 0, len(e)+1)
	out = append(out, e[:i]...)
	out = append(out, Term{Var: v, Coeff: rat.Copy(coeff)})
	return append(out, e[i:]...)
}

// Plus1 adds 1·v to the expression.
func (e Expr) Plus1(v Var) Expr { return e.Plus(rat.One(), v) }

// Minus adds -coeff·v to the expression.
func (e Expr) Minus(coeff rat.Rat, v Var) Expr {
	return e.Plus(rat.Neg(coeff), v)
}

// Concat merges every term of other into e and returns the merged
// expression, preserving the sorted-sparse invariant. It is the builder
// for shared capacity rows: per-edge occupancy expressions concatenate
// into per-node one-port rows without densifying.
func (e Expr) Concat(other Expr) Expr {
	if len(other) == 0 {
		return e
	}
	if len(e) == 0 {
		return append(Expr(nil), other...)
	}
	// Fast path: disjoint, strictly ordered ranges concatenate directly.
	if e[len(e)-1].Var < other[0].Var {
		return append(append(Expr(nil), e...), other...)
	}
	out := make(Expr, 0, len(e)+len(other))
	i, j := 0, 0
	for i < len(e) && j < len(other) {
		switch {
		case e[i].Var < other[j].Var:
			out = append(out, e[i])
			i++
		case e[i].Var > other[j].Var:
			out = append(out, other[j])
			j++
		default:
			if sum := rat.Add(e[i].Coeff, other[j].Coeff); sum.Sign() != 0 {
				out = append(out, Term{Var: e[i].Var, Coeff: sum})
			}
			i, j = i+1, j+1
		}
	}
	out = append(out, e[i:]...)
	return append(out, other[j:]...)
}

// Coeff returns the coefficient of v in the expression (zero when absent).
func (e Expr) Coeff(v Var) rat.Rat {
	i := sort.Search(len(e), func(i int) bool { return e[i].Var >= v })
	if i < len(e) && e[i].Var == v {
		return rat.Copy(e[i].Coeff)
	}
	return rat.Zero()
}

// canonical returns the expression in sorted-sparse form. Expressions
// built through Plus/Minus/Concat already satisfy the invariant and come
// back unchanged (no allocation); hand-assembled term slices are sorted
// and merged defensively.
func (e Expr) canonical() Expr {
	ordered := true
	for i := 1; i < len(e); i++ {
		if e[i-1].Var >= e[i].Var {
			ordered = false
			break
		}
	}
	if ordered {
		zeros := false
		for _, t := range e {
			if t.Coeff.Sign() == 0 {
				zeros = true
				break
			}
		}
		if !zeros {
			return e
		}
	}
	out := NewExpr()
	for _, t := range e {
		out = out.Plus(t.Coeff, t.Var)
	}
	return out
}

// Constraint is a linear constraint expr (sense) rhs.
type Constraint struct {
	Name  string
	Expr  Expr
	Sense Sense
	RHS   rat.Rat
}

// Model is a linear program: maximize (or minimize) a linear objective over
// nonnegative variables subject to linear constraints. Variables are always
// ≥ 0; optional upper bounds are recorded and lowered to constraints at
// solve time.
type Model struct {
	maximize bool
	names    []string
	index    map[string]Var
	upper    []rat.Rat // nil entry = unbounded above
	obj      map[Var]rat.Rat
	cons     []Constraint
	// blandOverride, when ≥ 0, replaces the per-phase pivot budget after
	// which the pivoting rule falls back from Dantzig's to Bland's; -1
	// means the size-derived default. Per-model (not a package global) so
	// concurrent solves never share it; tests set it through the
	// unexported setBlandAfter.
	blandOverride int
}

// NewMaximize returns an empty model whose objective will be maximized.
func NewMaximize() *Model { return newModel(true) }

// NewMinimize returns an empty model whose objective will be minimized.
func NewMinimize() *Model { return newModel(false) }

func newModel(maximize bool) *Model {
	return &Model{
		maximize:      maximize,
		index:         make(map[string]Var),
		obj:           make(map[Var]rat.Rat),
		blandOverride: -1,
	}
}

// setBlandAfter overrides the per-phase pivot budget after which the
// solver falls back from Dantzig's to Bland's rule, for this model's
// solves only. Tests use it to make the fallback (and its reset between
// phases) observable without constructing pathological cycling programs.
func (m *Model) setBlandAfter(n int) { m.blandOverride = n }

// Var declares a new nonnegative variable with the given name and returns
// its handle. Names must be unique; Var panics on a duplicate because a
// duplicate always indicates a bug in the model builder.
func (m *Model) Var(name string) Var {
	if _, dup := m.index[name]; dup {
		panic(fmt.Sprintf("lp: duplicate variable %q", name))
	}
	v := Var(len(m.names))
	m.names = append(m.names, name)
	m.upper = append(m.upper, nil)
	m.index[name] = v
	return v
}

// SetUpper bounds v ≤ u (in addition to the implicit v ≥ 0). A nil u
// removes the bound.
func (m *Model) SetUpper(v Var, u rat.Rat) {
	if u == nil {
		m.upper[v] = nil
		return
	}
	m.upper[v] = rat.Copy(u)
}

// SetObjective sets the objective coefficient of v (replacing any previous
// coefficient).
func (m *Model) SetObjective(v Var, coeff rat.Rat) {
	m.obj[v] = rat.Copy(coeff)
}

// AddConstraint appends the constraint expr (sense) rhs. Terms mentioning
// the same variable more than once are summed. The name is used only in
// diagnostics.
func (m *Model) AddConstraint(name string, expr Expr, sense Sense, rhs rat.Rat) {
	for _, t := range expr {
		if int(t.Var) < 0 || int(t.Var) >= len(m.names) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	m.cons = append(m.cons, Constraint{
		Name:  name,
		Expr:  append(Expr(nil), expr.canonical()...),
		Sense: sense,
		RHS:   rat.Copy(rhs),
	})
}

// Stats describes the assembled model: its size and the sparsity of its
// constraint matrix. NonZeros counts the (merged) terms of the explicit
// constraints; Density is NonZeros over the Vars×Constraints matrix area
// (0 for an empty model). The steady-state LPs sit well under 10% — each
// one-port, compute or conservation row touches only one node's incident
// variables — which is why the simplex tableau stores rows sparsely.
type Stats struct {
	Vars        int
	Constraints int
	NonZeros    int
	Density     float64 //sslint:allow outbound telemetry only: density never enters solver arithmetic
}

// Stats returns the model's current size and sparsity.
func (m *Model) Stats() Stats {
	s := Stats{Vars: len(m.names), Constraints: len(m.cons)}
	for _, c := range m.cons {
		s.NonZeros += len(c.Expr)
	}
	if area := s.Vars * s.Constraints; area > 0 {
		s.Density = float64(s.NonZeros) / float64(area) //sslint:allow outbound telemetry only: density never enters solver arithmetic
	}
	return s
}

// Constraints returns the model's constraints (shared slice; callers must
// not mutate).
func (m *Model) Constraints() []Constraint { return m.cons }

// Solution is a feasible (and, on success, optimal) assignment of rational
// values to the model's variables.
type Solution struct {
	model     *Model
	Objective rat.Rat
	values    []rat.Rat
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// Phase1Iterations is the number of those pivots spent in phase 1
	// (finding a feasible basis, including driving artificials out); zero
	// when the initial basis was already feasible. A warm-started solve
	// skips phase 1, and the eliminations that restored the warm basis are
	// factorization rather than search — they appear as rebuild_pivots on
	// the lp.warmstart trace span, not in Iterations or here.
	Phase1Iterations int

	// basisCols / fingerprint / nCols snapshot the certified basis and the
	// model structure it belongs to, for Solution.Basis.
	basisCols   []int
	fingerprint string
	nCols       int
}

// Value returns the value assigned to v.
func (s *Solution) Value(v Var) rat.Rat { return s.values[v] }

// ValueByName returns the value of the named variable, or nil if the name
// is unknown.
func (s *Solution) ValueByName(name string) rat.Rat {
	v, ok := s.model.index[name]
	if !ok {
		return nil
	}
	return s.values[v]
}

// Values returns a copy of all variable values, indexed by Var.
func (s *Solution) Values() []rat.Rat { return rat.Clone(s.values) }

// NonZero returns the names and values of all nonzero variables, sorted by
// name — a compact, deterministic rendering of the solution used in
// reports and golden tests.
func (s *Solution) NonZero() []struct {
	Name  string
	Value rat.Rat
} {
	var out []struct {
		Name  string
		Value rat.Rat
	}
	for v, val := range s.values {
		if !rat.IsZero(val) {
			out = append(out, struct {
				Name  string
				Value rat.Rat
			}{s.model.names[v], val})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the solution objective and nonzero variables.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective = %s\n", s.Objective.RatString())
	for _, nv := range s.NonZero() {
		fmt.Fprintf(&b, "  %s = %s\n", nv.Name, nv.Value.RatString())
	}
	return b.String()
}

// Infeasible and Unbounded are the two failure modes of SolveCtx.
var (
	// ErrInfeasible is returned when no assignment satisfies the
	// constraints.
	ErrInfeasible = fmt.Errorf("lp: infeasible")
	// ErrUnbounded is returned when the objective is unbounded over the
	// feasible region.
	ErrUnbounded = fmt.Errorf("lp: unbounded")
)

// Verify checks that values satisfies every constraint and bound of the
// model exactly, returning a descriptive error for the first violation. It
// is independent of the solver and is used to harden tests and callers.
func (m *Model) Verify(values []rat.Rat) error {
	if len(values) != len(m.names) {
		return fmt.Errorf("lp: verify: got %d values for %d variables", len(values), len(m.names))
	}
	for v, val := range values {
		if val.Sign() < 0 {
			return fmt.Errorf("lp: verify: %s = %s < 0", m.names[v], val.RatString())
		}
		if u := m.upper[v]; u != nil && val.Cmp(u) > 0 {
			return fmt.Errorf("lp: verify: %s = %s > upper bound %s", m.names[v], val.RatString(), u.RatString())
		}
	}
	for _, c := range m.cons {
		lhs := rat.Zero()
		for _, t := range c.Expr {
			lhs.Add(lhs, rat.Mul(t.Coeff, values[t.Var]))
		}
		ok := false
		switch c.Sense {
		case Leq:
			ok = lhs.Cmp(c.RHS) <= 0
		case Eq:
			ok = lhs.Cmp(c.RHS) == 0
		case Geq:
			ok = lhs.Cmp(c.RHS) >= 0
		}
		if !ok {
			return fmt.Errorf("lp: verify: constraint %q violated: %s %s %s",
				c.Name, lhs.RatString(), c.Sense, c.RHS.RatString())
		}
	}
	return nil
}

// EvalObjective computes the objective value of an assignment.
func (m *Model) EvalObjective(values []rat.Rat) rat.Rat {
	z := rat.Zero()
	for v, coeff := range m.obj {
		z.Add(z, rat.Mul(coeff, values[v]))
	}
	return z
}

// ratFromBigInts builds the rational n/d.
func ratFromBigInts(n, d *big.Int) rat.Rat {
	return new(big.Rat).SetFrac(new(big.Int).Set(n), new(big.Int).Set(d))
}
