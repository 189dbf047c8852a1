// Package fixture lists the context idiom ctxflow must accept.
package fixture

import "context"

// Problem hosts the sanctioned shape.
type Problem struct{}

// SolveCtx normalizes a nil caller context with the sanctioned guard and
// honors cancellation.
func (p *Problem) SolveCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}
