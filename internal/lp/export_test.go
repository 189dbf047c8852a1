package lp

import "context"

// WithDenseTableau returns a context under which every Model.SolveCtx runs
// on the dense reference tableau (dense_test.go) instead of the sparse
// production tableau. Only this package's test binary can see it. That
// binary rebuilds every package above lp against this test variant, so
// the decoration also reaches the simplex beneath steadystate.Solve in
// the external lp_test package.
func WithDenseTableau(ctx context.Context) context.Context {
	return context.WithValue(ctx, tableauCtxKey{}, func(nCols, blandAfter int) tableau {
		return newDenseTableau(nCols, blandAfter)
	})
}
