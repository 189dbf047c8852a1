package lp_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
	"repro/internal/lp"
)

// TestWarmSettlesOnlyForPhase2Chain is TestWarmSettlesOnlyForPhase2 on a
// steady-state LP: the first seed-42 scatter chain, a Tiers base and 8
// cumulative perturbations, regenerated with
//
//	go run ./cmd/topogen -kind tiers -count 1 -perturb 8 -seed 42 -spec -op scatter -out /tmp/c
//	for f in /tmp/c/*.json; do jq -c . $f; done > testdata/scatter-chain-seed42.jsonl
//
// swept warm through one basis cache. Six warm solves are optimal at once,
// one pivots in phase 2 and one basis is rejected as infeasible; each must
// settle the rebuild's waiting rows only as CheckWarmSettles allows.
func TestWarmSettlesOnlyForPhase2Chain(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "scatter-chain-seed42.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*lp.WarmSettles
	ctx := lp.WithSettleProbe(context.Background(), t, &recs)
	cache := steadystate.NewBasisCache(4)
	var n lp.SettleTally
	rejected := 0
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	for k := 0; lines.Scan(); k++ {
		var sc steadystate.Scenario
		if err := json.Unmarshal(lines.Bytes(), &sc); err != nil {
			t.Fatalf("scenario %d: %v", k, err)
		}
		recs = recs[:0]
		sol, err := sc.Solve(ctx, steadystate.WithBasisCache(cache))
		if err != nil {
			t.Fatalf("scenario %d: %v", k, err)
		}
		rep, err := sol.Report()
		if err != nil {
			t.Fatal(err)
		}
		lp.CheckWarmSettles(t, fmt.Sprintf("scenario %d", k), recs, rep.WarmStart, &n)
		if rep.WarmReject != "" {
			rejected++
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	if n.AtOnce != 6 || n.ForPhase2 != 1 || rejected != 1 || n.Checked == 0 {
		t.Fatalf("%+v, %d rejected: want 6 warm solves optimal at once, 1 pivoting, 1 rejected and waiting rows read", n, rejected)
	}
}
