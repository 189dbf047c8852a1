// Package fixture exercises ctxflow: context-free Solve entry points,
// dropped context parameters, and fresh root contexts.
package fixture

import "context"

// Problem hosts the solver entry points.
type Problem struct{}

// SolvePlain does not accept a context.
func (p *Problem) SolvePlain() error { // want "SolvePlain does not accept a context.Context"
	return nil
}

// SolveDropped accepts a context and never reads it.
func SolveDropped(ctx context.Context, n int) int { // want "context parameter ctx is never used"
	return n
}

// Fresh mints a root context inside the library.
func Fresh() context.Context {
	return context.TODO() // want "context.TODO\\(\\) severs the cancellation chain"
}

// Detach swaps the caller's context for a fresh root outside any nil
// guard.
func Detach(ctx context.Context) context.Context {
	_ = ctx
	return context.Background() // want "context.Background\\(\\) severs the cancellation chain"
}

// SolveOld carries a Deprecated: notice, which exempts it from nothing:
// it does not accept a context, and it mints a root one.
//
// Deprecated: use SolvePlain.
func (p *Problem) SolveOld() error { // want "SolveOld does not accept a context.Context"
	return context.Background().Err() // want "context.Background\\(\\) severs the cancellation chain"
}

// SolveCtx honors its caller's context.
func (p *Problem) SolveCtx(ctx context.Context) error {
	return ctx.Err()
}

// Solve is a context-free convenience wrapper delegating to SolveCtx.
// Delegation exempts it from nothing: it does not accept a context, and
// it mints a root one.
func (p *Problem) Solve() error { // want "Solve does not accept a context.Context"
	return p.SolveCtx(context.Background()) // want "context.Background\\(\\) severs the cancellation chain"
}
