// Package schedule turns solved steady-state rates into concrete periodic
// communication schedules (Sections 3.3 and 4.3 of the paper).
//
// The construction: scale the rational solution to an integer period T
// (LCM of denominators), build the bipartite sender/receiver graph whose
// edges are the per-period transfer times, decompose it into weighted
// matchings (package matching), and lay the matchings out as consecutive
// slots of the period. Within a slot every processor sends at most one
// stream and receives at most one, so the slot's transfers run in parallel
// without violating the one-port model; slots run back to back and fit in
// the period because the LP bounded every port's busy time by T.
//
// Transfers may be split across non-adjacent slots (the paper's Figure
// 4(a)); Unsplit rescales the period so that every slot moves a whole
// number of messages (Figure 4(b)).
//
// Two constructions are exposed. MergeFlows superposes the typed transfer
// demands of one or more collectives (each solved part's core.Demand) over
// a common period — the LCM of the member periods — into a single
// one-port-safe slot sequence; every solved member, and so every plain
// solve of a base kind, schedules through it
// (composite.MemberSolution.Schedule). FromTrees serializes a reduce's
// certified reduction-tree family instead.
package schedule

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rat"
)

// Transfer is one typed message stream within a slot.
type Transfer struct {
	From, To graph.NodeID
	// Label describes the message type (e.g. "m_P0" or "v[1,6]#2" for
	// tree 2 of a reduce schedule).
	Label string
	// Messages is the (possibly fractional) number of messages moved
	// during the slot.
	Messages rat.Rat
}

// Slot is one serial step of the period: its transfers run simultaneously.
type Slot struct {
	Start, End rat.Rat
	Transfers  []Transfer
}

// Duration returns End − Start.
func (s Slot) Duration() rat.Rat { return rat.Sub(s.End, s.Start) }

// Schedule is a periodic communication schedule.
type Schedule struct {
	Platform *graph.Platform
	// Period is the schedule period in time units.
	Period rat.Rat
	Slots  []Slot
	// ComputeLoad is the per-node computation time per period (reduce
	// schedules only; communication-only schedules leave it empty). The
	// full-overlap model lets nodes compute in parallel with the slots.
	ComputeLoad map[graph.NodeID]rat.Rat
}

// payload carries transfer identity through the matching decomposition.
type payload struct {
	label string
	// perTime is messages per time unit: count/weight, used to convert a
	// step's duration back to a message count.
	perTime rat.Rat
}

// MergeFlows builds one periodic schedule for several collectives
// superposed on the same platform: the union of every member's transfers
// (its core.Demand) over the common integer period (normally the LCM of
// the member periods) is decomposed into one sequence of one-port-safe
// matching slots, and the members' compute times, scaled by the period,
// become the schedule's ComputeLoad. The decomposition follows the order
// of the transfers, so callers list them deterministically. The members
// must jointly satisfy the shared one-port constraints — as solutions of
// one shared-capacity LP do — or the decomposition fails with the port
// whose busy time overruns the period.
func MergeFlows(p *graph.Platform, period *big.Int, members []core.Demand) (*Schedule, error) {
	per := new(big.Rat).SetInt(period)
	var transfers []matching.Transfer
	computeLoad := make(map[graph.NodeID]rat.Rat)
	for _, mem := range members {
		for _, tr := range mem.Transfers {
			cost := p.Cost(tr.From, tr.To)
			count := rat.Mul(tr.Rate, per) // messages per period
			unit := rat.Mul(tr.Size, cost) // time per message
			weight := rat.Mul(count, unit) // busy time per period
			transfers = append(transfers, matching.Transfer{
				Sender:   int(tr.From),
				Receiver: int(tr.To),
				Weight:   weight,
				Payload:  payload{label: tr.Label, perTime: rat.Inv(unit)},
			})
		}
		for id, busy := range mem.ComputeTime {
			if computeLoad[id] == nil {
				computeLoad[id] = rat.Zero()
			}
			computeLoad[id].Add(computeLoad[id], rat.Mul(busy, per))
		}
	}
	if len(computeLoad) == 0 {
		computeLoad = nil
	}
	return assemble(p, per, transfers, computeLoad)
}

// assemble runs the matching decomposition and lays out the slots.
func assemble(p *graph.Platform, period rat.Rat, transfers []matching.Transfer,
	computeLoad map[graph.NodeID]rat.Rat) (*Schedule, error) {
	nNodes := p.NumNodes()
	if len(transfers) > 0 {
		delta := matching.MaxWeightedDegree(nNodes, nNodes, transfers)
		if delta.Cmp(period) > 0 {
			return nil, fmt.Errorf("schedule: port busy time %s exceeds period %s (solution violates one-port)",
				delta.RatString(), period.RatString())
		}
	}
	steps, err := matching.Decompose(nNodes, nNodes, transfers)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	sched := &Schedule{Platform: p, Period: rat.Copy(period), ComputeLoad: computeLoad}
	clock := rat.Zero()
	for _, st := range steps {
		slot := Slot{Start: rat.Copy(clock), End: rat.Add(clock, st.Duration)}
		for _, tr := range st.Transfers {
			pl := tr.Payload.(payload)
			slot.Transfers = append(slot.Transfers, Transfer{
				From:     graph.NodeID(tr.Sender),
				To:       graph.NodeID(tr.Receiver),
				Label:    pl.label,
				Messages: rat.Mul(st.Duration, pl.perTime),
			})
		}
		sched.Slots = append(sched.Slots, slot)
		clock = slot.End
	}
	if clock.Cmp(period) > 0 {
		return nil, fmt.Errorf("schedule: slots overrun the period: %s > %s",
			clock.RatString(), period.RatString())
	}
	return sched, nil
}

// Verify checks the schedule's structural invariants: slots are ordered
// and within the period, every slot is a matching (one send and one
// receive per node), and the compute load fits in the period.
func (s *Schedule) Verify() error {
	prevEnd := rat.Zero()
	for i, slot := range s.Slots {
		if slot.Start.Cmp(prevEnd) < 0 {
			return fmt.Errorf("schedule: slot %d starts at %s before previous end %s",
				i, slot.Start.RatString(), prevEnd.RatString())
		}
		if slot.End.Cmp(slot.Start) <= 0 {
			return fmt.Errorf("schedule: slot %d has non-positive duration", i)
		}
		if slot.End.Cmp(s.Period) > 0 {
			return fmt.Errorf("schedule: slot %d ends at %s after period %s",
				i, slot.End.RatString(), s.Period.RatString())
		}
		senders := make(map[graph.NodeID]bool)
		receivers := make(map[graph.NodeID]bool)
		for _, tr := range slot.Transfers {
			if senders[tr.From] {
				return fmt.Errorf("schedule: slot %d: node %s sends twice",
					i, s.Platform.Node(tr.From).Name)
			}
			if receivers[tr.To] {
				return fmt.Errorf("schedule: slot %d: node %s receives twice",
					i, s.Platform.Node(tr.To).Name)
			}
			senders[tr.From] = true
			receivers[tr.To] = true
			if tr.Messages.Sign() <= 0 {
				return fmt.Errorf("schedule: slot %d: non-positive message count", i)
			}
			if _, ok := s.Platform.FindEdge(tr.From, tr.To); !ok {
				return fmt.Errorf("schedule: slot %d: transfer over missing edge %s→%s",
					i, s.Platform.Node(tr.From).Name, s.Platform.Node(tr.To).Name)
			}
		}
		prevEnd = slot.End
	}
	for id, load := range s.ComputeLoad {
		if load.Cmp(s.Period) > 0 {
			return fmt.Errorf("schedule: node %s computes for %s > period %s",
				s.Platform.Node(id).Name, load.RatString(), s.Period.RatString())
		}
	}
	return nil
}

// TotalMessages sums the messages moved per period, per label.
func (s *Schedule) TotalMessages() map[string]rat.Rat {
	out := make(map[string]rat.Rat)
	for _, slot := range s.Slots {
		for _, tr := range slot.Transfers {
			if out[tr.Label] == nil {
				out[tr.Label] = rat.Zero()
			}
			out[tr.Label].Add(out[tr.Label], tr.Messages)
		}
	}
	return out
}

// BusyTime returns the total busy (non-idle) duration of the period.
func (s *Schedule) BusyTime() rat.Rat {
	total := rat.Zero()
	for _, slot := range s.Slots {
		total.Add(total, slot.Duration())
	}
	return total
}

// HasSplitMessages reports whether any slot moves a fractional number of
// messages (a message whose transfer spans multiple slots, as in the
// paper's Figure 4(a)).
func (s *Schedule) HasSplitMessages() bool {
	for _, slot := range s.Slots {
		for _, tr := range slot.Transfers {
			if !tr.Messages.IsInt() {
				return true
			}
		}
	}
	return false
}

// Unsplit returns an equivalent schedule whose slots each carry a whole
// number of messages, by scaling the period by the LCM of the message-count
// denominators (the paper's Figure 4(b): period 12 → 48).
func (s *Schedule) Unsplit() *Schedule {
	var counts []rat.Rat
	for _, slot := range s.Slots {
		for _, tr := range slot.Transfers {
			counts = append(counts, tr.Messages)
		}
	}
	scale := rat.DenominatorLCM(counts...)
	scaleRat := new(big.Rat).SetInt(scale)
	out := &Schedule{
		Platform:    s.Platform,
		Period:      rat.Mul(s.Period, scaleRat),
		ComputeLoad: make(map[graph.NodeID]rat.Rat, len(s.ComputeLoad)),
	}
	for id, load := range s.ComputeLoad {
		out.ComputeLoad[id] = rat.Mul(load, scaleRat)
	}
	for _, slot := range s.Slots {
		ns := Slot{Start: rat.Mul(slot.Start, scaleRat), End: rat.Mul(slot.End, scaleRat)}
		for _, tr := range slot.Transfers {
			ns.Transfers = append(ns.Transfers, Transfer{
				From: tr.From, To: tr.To, Label: tr.Label,
				Messages: rat.Mul(tr.Messages, scaleRat),
			})
		}
		out.Slots = append(out.Slots, ns)
	}
	return out
}

// Gantt renders the schedule as an ASCII table in the spirit of the
// paper's Figure 4: one row per directed link, one column per slot.
func (s *Schedule) Gantt() string {
	type key struct{ from, to graph.NodeID }
	rows := make(map[key][]string)
	var keys []key
	for _, slot := range s.Slots {
		for _, tr := range slot.Transfers {
			k := key{tr.From, tr.To}
			if _, ok := rows[k]; !ok {
				keys = append(keys, k)
			}
			rows[k] = nil
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for si, slot := range s.Slots {
		_ = si
		present := make(map[key]string)
		for _, tr := range slot.Transfers {
			present[key{tr.From, tr.To}] = fmt.Sprintf("%s×%s", tr.Messages.RatString(), tr.Label)
		}
		for _, k := range keys {
			cell := present[k]
			if cell == "" {
				cell = "-"
			}
			rows[k] = append(rows[k], cell)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "period %s, %d slots\n", s.Period.RatString(), len(s.Slots))
	fmt.Fprintf(&b, "%-18s", "slot boundaries:")
	for _, slot := range s.Slots {
		fmt.Fprintf(&b, " [%s,%s)", slot.Start.RatString(), slot.End.RatString())
	}
	b.WriteByte('\n')
	for _, k := range keys {
		fmt.Fprintf(&b, "%-18s", s.Platform.Node(k.from).Name+"→"+s.Platform.Node(k.to).Name+":")
		for _, cell := range rows[k] {
			fmt.Fprintf(&b, " %s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
