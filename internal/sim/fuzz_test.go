package sim

import (
	"math/big"
	"testing"

	"repro/internal/graph"
	"repro/internal/rat"
)

// fuzzModel decodes an arbitrary byte string into a small Model,
// deliberately allowing every malformation Validate guards against —
// negative or nil counts, out-of-range node IDs, empty types, quotas on
// non-sinks, unquoted source-sinks — so the fuzzer can drive both the
// happy path and the rejection path.
func fuzzModel(data []byte) *Model {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := graph.New()
	nodes := 2 + int(next()%3)
	for i := 0; i < nodes; i++ {
		p.AddNode(string(rune('a'+i)), rat.One())
	}
	// Node IDs decode into [-1, nodes]: mostly valid, sometimes not.
	node := func() graph.NodeID { return graph.NodeID(int(next()%byte(nodes+2)) - 1) }
	// Counts decode into [-1, 6] plus an occasional nil.
	count := func() *big.Int {
		b := next()
		if b%13 == 0 {
			return nil
		}
		return big.NewInt(int64(b%8) - 1)
	}
	types := []TypeID{"", "x", "y", "op0:x"}
	typ := func() TypeID { return types[next()%byte(len(types))] }

	m := &Model{
		Platform:  p,
		Period:    big.NewInt(int64(next()%4) - 1),
		Sources:   make(map[Endpoint]bool),
		Sinks:     make(map[Endpoint]bool),
		SinkQuota: make(map[Endpoint]*big.Int),
	}
	for n := int(next() % 8); n > 0; n-- {
		m.Transfers = append(m.Transfers, Transfer{From: node(), To: node(), Type: typ(), Count: count()})
	}
	for n := int(next() % 6); n > 0; n-- {
		r := Rule{Node: node(), Produces: typ(), Count: count(), Order: int(next() % 4)}
		for c := int(next() % 3); c > 0; c-- {
			r.Consumes = append(r.Consumes, typ())
		}
		m.Rules = append(m.Rules, r)
	}
	for n := int(next() % 4); n > 0; n-- {
		m.Sources[Endpoint{node(), typ()}] = true
	}
	for n := int(next() % 4); n > 0; n-- {
		e := Endpoint{node(), typ()}
		m.Sinks[e] = true
		if next()%2 == 0 {
			m.SinkQuota[e] = count()
		}
	}
	if next()%4 == 0 {
		// Quota on a non-sink endpoint.
		m.SinkQuota[Endpoint{node(), typ()}] = count()
	}
	return m
}

// FuzzSimModel: hand-built or decoded models must never panic the replay
// loop — Run and RunLatency either reject the model via Validate or
// complete, and a model accepted by Validate must replay cleanly with
// deliveries consistent between the two engines, at a horizon inside the
// models' warmup (4 periods) and one past it (16). When the short run
// already repeats a period, the long run must be that run plus 12 copies
// of the repeating period.
func FuzzSimModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("steady-state scatter and reduce"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})
	// Three nodes, period 1, a is a source of x and c a sink of x; a sends
	// 2 x to b per period, and b forwards 2 (a conserving relay, which
	// repeats from period 1) or 1 (a relay that grows, which never repeats).
	f.Add([]byte{1, 2, 2, 1, 2, 1, 3, 2, 3, 1, 3, 0, 1, 1, 1, 1, 3, 1, 1, 1})
	f.Add([]byte{1, 2, 2, 1, 2, 1, 3, 2, 3, 1, 2, 0, 1, 1, 1, 1, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(data)
		valid := m.Validate() == nil

		var runs []*Result
		for _, k := range []int{4, 16} {
			res, err := Run(m, k)
			if valid && err != nil {
				t.Fatalf("K=%d: Run rejected a model Validate accepted: %v", k, err)
			}
			if !valid && err == nil {
				t.Fatalf("K=%d: Run accepted a model Validate rejected", k)
			}
			lres, lerr := RunLatency(m, k)
			if (lerr == nil) != (err == nil) {
				t.Fatalf("K=%d: Run error %v but RunLatency error %v", k, err, lerr)
			}
			if err != nil {
				return
			}
			for e, d := range res.Delivered {
				if d.Sign() < 0 {
					t.Fatalf("K=%d: negative delivery at %v", k, e)
				}
				if ld := lres.Delivered[e]; ld == nil || ld.Cmp(d) != 0 {
					t.Fatalf("K=%d: sink %v: Run delivered %s, RunLatency %v", k, e, d, ld)
				}
			}
			runs = append(runs, res)
		}

		short, long := runs[0], runs[1]
		if short.Steady < 0 {
			return
		}
		if long.Steady != short.Steady {
			t.Fatalf("K=4 repeats from period %d, K=16 from %d", short.Steady, long.Steady)
		}
		for e, d := range short.Delivered {
			want := new(big.Int).Mul(short.SteadyDelivered[e], big.NewInt(12))
			want.Add(want, d)
			if got := long.Delivered[e]; got.Cmp(want) != 0 {
				t.Fatalf("sink %v: K=16 delivered %s, want K=4's %s + 12×%s", e, got, d, short.SteadyDelivered[e])
			}
		}
		if short.FirstFullPeriod != long.FirstFullPeriod {
			t.Fatalf("FirstFullPeriod %d at K=4, %d at K=16", short.FirstFullPeriod, long.FirstFullPeriod)
		}
		if len(short.MaxBuffer) != len(long.MaxBuffer) {
			t.Fatalf("MaxBuffer has %d entries at K=4, %d at K=16", len(short.MaxBuffer), len(long.MaxBuffer))
		}
		for e, b := range short.MaxBuffer {
			if lb := long.MaxBuffer[e]; lb == nil || lb.Cmp(b) != 0 {
				t.Fatalf("MaxBuffer at %v: %s at K=4, %v at K=16", e, b, lb)
			}
		}
	})
}
