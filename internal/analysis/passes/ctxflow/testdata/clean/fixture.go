// Package fixture lists the context idioms ctxflow must accept.
package fixture

import "context"

// Problem hosts the sanctioned shapes.
type Problem struct{}

// SolveCtx is the context-aware variant: it normalizes a nil caller
// context with the sanctioned guard and honors cancellation.
func (p *Problem) SolveCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}

// Solve is the sanctioned convenience wrapper: a single return
// delegating to its own Ctx variant.
func (p *Problem) Solve() error {
	return p.SolveCtx(context.Background())
}
