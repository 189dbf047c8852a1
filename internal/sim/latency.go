package sim

import (
	"fmt"
	"math/big"
)

// LatencyResult reports per-operation pipeline latency for a run of the
// periodic protocol: steady-state scheduling maximizes throughput at the
// cost of each individual operation spending several periods in flight
// (the makespan-vs-throughput tradeoff of the paper's introduction). The
// latency of a delivered unit is the number of periods between the period
// in which its oldest ingredient left a source and the period of its
// delivery.
type LatencyResult struct {
	Periods int
	// Delivered counts absorbed units per sink (identical semantics to
	// Result.Delivered).
	Delivered map[Endpoint]*big.Int
	// MinLatency, MaxLatency and total latency are aggregated over every
	// delivered unit of every sink, in periods.
	MinLatency, MaxLatency int
	totalLatency           *big.Int
	totalUnits             *big.Int
}

// MeanLatency returns the average per-unit latency in periods (0 when
// nothing was delivered).
func (r *LatencyResult) MeanLatency() float64 {
	if r.totalUnits.Sign() == 0 {
		return 0
	}
	v, _ := new(big.Rat).SetFrac(r.totalLatency, r.totalUnits).Float64()
	return v
}

// cohort is a batch of identical units that entered the pipeline in the
// same period.
type cohort struct {
	tag   int // emission period of the oldest ingredient
	count *big.Int
}

// queue is a FIFO of cohorts.
type queue struct {
	items []cohort
	total *big.Int
}

func newQueue() *queue { return &queue{total: new(big.Int)} }

func (q *queue) push(tag int, count *big.Int) {
	if count.Sign() <= 0 {
		return
	}
	n := len(q.items)
	if n > 0 && q.items[n-1].tag == tag {
		q.items[n-1].count.Add(q.items[n-1].count, count)
	} else {
		q.items = append(q.items, cohort{tag: tag, count: new(big.Int).Set(count)})
	}
	q.total.Add(q.total, count)
}

// pop removes count units from the front and returns the removed cohorts.
// It panics if the queue holds fewer than count units (an engine bug).
func (q *queue) pop(count *big.Int) []cohort {
	if q.total.Cmp(count) < 0 {
		panic("sim: queue underflow")
	}
	remaining := new(big.Int).Set(count)
	var out []cohort
	for remaining.Sign() > 0 {
		head := &q.items[0]
		if head.count.Cmp(remaining) <= 0 {
			out = append(out, cohort{tag: head.tag, count: new(big.Int).Set(head.count)})
			remaining.Sub(remaining, head.count)
			q.items = q.items[1:]
		} else {
			out = append(out, cohort{tag: head.tag, count: new(big.Int).Set(remaining)})
			head.count.Sub(head.count, remaining)
			remaining.SetInt64(0)
		}
	}
	q.total.Sub(q.total, count)
	return out
}

// RunLatency replays the Section 3.4 protocol like Run, but tracks every
// unit's origin period through FIFO buffers so that delivery latency can
// be measured. Sends and rules follow the same eligibility semantics as
// Run; a rule's product inherits the oldest (maximum-age ⇒ minimum tag)
// ingredient among its inputs, so reduce latencies reflect the slowest
// branch of the reduction tree.
func RunLatency(m *Model, periods int) (*LatencyResult, error) {
	if periods <= 0 {
		return nil, fmt.Errorf("sim: periods must be positive")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	buf := make(map[Endpoint]*queue)
	get := func(e Endpoint) *queue {
		if buf[e] == nil {
			buf[e] = newQueue()
		}
		return buf[e]
	}
	res := &LatencyResult{
		Periods:      periods,
		Delivered:    make(map[Endpoint]*big.Int),
		MinLatency:   -1,
		totalLatency: new(big.Int),
		totalUnits:   new(big.Int),
	}
	for e := range m.Sinks {
		res.Delivered[e] = new(big.Int)
	}

	demand := make(map[Endpoint]*big.Int)
	for _, t := range m.Transfers {
		e := Endpoint{t.From, t.Type}
		if demand[e] == nil {
			demand[e] = new(big.Int)
		}
		demand[e].Add(demand[e], t.Count)
	}
	rules := sortedRules(m.Rules)

	for period := 0; period < periods; period++ {
		// Shipping decisions from the start-of-period totals.
		eligible := make(map[Endpoint]bool)
		for e, d := range demand {
			eligible[e] = m.Sources[e] || get(e).total.Cmp(d) >= 0
		}

		// Sends: pop cohorts at the sender, credit them at the receiver
		// after all sends (arrivals are usable next decisions).
		type arrival struct {
			e       Endpoint
			cohorts []cohort
		}
		var arrivals []arrival
		for _, t := range m.Transfers {
			from := Endpoint{t.From, t.Type}
			if !eligible[from] {
				continue
			}
			var moved []cohort
			if m.Sources[from] {
				// Fresh units minted this period.
				moved = []cohort{{tag: period, count: new(big.Int).Set(t.Count)}}
			} else {
				moved = get(from).pop(t.Count)
			}
			arrivals = append(arrivals, arrival{Endpoint{t.To, t.Type}, moved})
		}
		for _, a := range arrivals {
			if m.Sources[a.e] {
				continue
			}
			for _, c := range a.cohorts {
				get(a.e).push(c.tag, c.count)
			}
		}

		// Rules: consume one unit per input per execution, produce tagged
		// with the oldest ingredient. Executions are batched per distinct
		// tag combination for speed.
		for _, r := range rules {
			execs := new(big.Int).Set(r.Count)
			for _, cns := range r.Consumes {
				e := Endpoint{r.Node, cns}
				if m.Sources[e] {
					continue
				}
				if avail := get(e).total; avail.Cmp(execs) < 0 {
					execs.Set(avail)
				}
			}
			if execs.Sign() <= 0 {
				continue
			}
			// Pop per-input cohorts, then merge tags pessimistically
			// (oldest tag wins) by aligning the cohort streams.
			streams := make([][]cohort, 0, len(r.Consumes))
			for _, cns := range r.Consumes {
				e := Endpoint{r.Node, cns}
				if m.Sources[e] {
					streams = append(streams, []cohort{{tag: period, count: new(big.Int).Set(execs)}})
					continue
				}
				streams = append(streams, get(e).pop(execs))
			}
			outQ := (*queue)(nil)
			outE := Endpoint{r.Node, r.Produces}
			if !m.Sources[outE] {
				outQ = get(outE)
			}
			for _, c := range alignCohorts(streams, execs) {
				if outQ != nil {
					outQ.push(c.tag, c.count)
				}
			}
		}

		// Sinks drain and record latencies — everything, or up to the
		// sink's quota (surplus cohorts stay queued for forwarding). A
		// sink that is also a source delivers locally owned units: quota
		// per period at latency zero.
		for e := range m.Sinks {
			if m.Sources[e] {
				q := m.SinkQuota[e]
				if q.Sign() > 0 {
					res.MinLatency = 0 // zero is the floor: local units never wait
					res.totalUnits.Add(res.totalUnits, q)
					res.Delivered[e].Add(res.Delivered[e], q)
				}
				continue
			}
			q := get(e)
			if q.total.Sign() == 0 {
				continue
			}
			take := new(big.Int).Set(q.total)
			if quota, ok := m.SinkQuota[e]; ok && take.Cmp(quota) > 0 {
				take.Set(quota)
			}
			for _, c := range q.pop(take) {
				lat := period - c.tag
				if res.MinLatency == -1 || lat < res.MinLatency {
					res.MinLatency = lat
				}
				if lat > res.MaxLatency {
					res.MaxLatency = lat
				}
				res.totalLatency.Add(res.totalLatency, new(big.Int).Mul(big.NewInt(int64(lat)), c.count))
				res.totalUnits.Add(res.totalUnits, c.count)
				res.Delivered[e].Add(res.Delivered[e], c.count)
			}
		}
	}
	if res.MinLatency == -1 {
		res.MinLatency = 0
	}
	return res, nil
}

// alignCohorts zips parallel cohort streams of equal total count into one
// stream where each unit carries the minimum (oldest) tag of its aligned
// ingredients.
func alignCohorts(streams [][]cohort, total *big.Int) []cohort {
	if len(streams) == 0 {
		return nil
	}
	idx := make([]int, len(streams))
	rem := make([]*big.Int, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			rem[i] = new(big.Int).Set(s[0].count)
		}
	}
	var out []cohort
	left := new(big.Int).Set(total)
	for left.Sign() > 0 {
		// The batch size is the minimum remaining head count.
		batch := new(big.Int).Set(left)
		tag := -1
		for i, s := range streams {
			if rem[i].Cmp(batch) < 0 {
				batch.Set(rem[i])
			}
			t := s[idx[i]].tag
			if tag == -1 || t < tag {
				tag = t
			}
		}
		out = append(out, cohort{tag: tag, count: new(big.Int).Set(batch)})
		for i := range streams {
			rem[i].Sub(rem[i], batch)
			if rem[i].Sign() == 0 && idx[i]+1 < len(streams[i]) {
				idx[i]++
				rem[i] = new(big.Int).Set(streams[i][idx[i]].count)
			}
		}
		left.Sub(left, batch)
	}
	return out
}
