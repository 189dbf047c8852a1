package reduce

import (
	"repro/internal/graph"
	"repro/internal/rat"
)

// NewGatherProblem configures a Series of Gathers as a reduce instance:
// the operator ⊕ is concatenation, so a partial result v[k,m] has size
// (m−k+1)·blockSize (merging saves no bytes) and merge tasks are free
// (concatenation costs no compute). The paper notes (Section 4) that
// gathers "in a particular order" are exactly reductions under a
// non-commutative operator; this constructor makes that instantiation a
// one-liner while keeping the full LP machinery — gathers still benefit
// from multi-route transfers and from assembling blocks en route.
func NewGatherProblem(p *graph.Platform, order []graph.NodeID, target graph.NodeID, blockSize rat.Rat) (*Problem, error) {
	if blockSize == nil || blockSize.Sign() <= 0 {
		return nil, errNonPositiveBlock
	}
	pr, err := newProblem("gather", p, order, target)
	if err != nil {
		return nil, err
	}
	size := rat.Copy(blockSize)
	pr.SizeOf = func(r Range) rat.Rat {
		return rat.Mul(rat.Int(int64(r.Len())), size)
	}
	pr.TaskTime = func(graph.NodeID, Task) rat.Rat { return rat.Zero() }
	return pr, nil
}

var errNonPositiveBlock = errorString("gather: block size must be positive")

// errorString is a tiny allocation-free error type for sentinel errors.
type errorString string

func (e errorString) Error() string { return string(e) }
