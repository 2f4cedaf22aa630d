// Package faults is the one driver of run-time mutation in the
// simulated system: scheduled dispatcher crashes and restarts, link
// flaps, path partitions and loss-model switches from a fault plan,
// plus the paper's reconfigurations (LinkBreak) and subscription churn
// (SubSwap) from lazy generators. The injector executes them inside
// the single-threaded event loop, together with the repair that
// follows, drawing randomness from dedicated kernel streams ("faul",
// "reco", "chur") — so the same seed and the same plan always produce
// the same mutation sequence, bit for bit, and every failure scenario
// is replayable.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/sim"
)

// Kind classifies one fault action.
type Kind uint8

// Fault kinds.
const (
	// NodeCrash takes a dispatcher down: its links are removed, its
	// learned routing state is lost, its gossip engine stops, and the
	// network blackholes its traffic (including messages in flight).
	NodeCrash Kind = iota + 1
	// NodeRestart brings a crashed dispatcher back: it rejoins the
	// overlay at a random degree-respecting attach point and resyncs
	// subscription state over the new link.
	NodeRestart
	// LinkFlap removes the named link for Downtime, then restores it.
	LinkFlap
	// Partition cuts the middle link of the A–B path, separating the
	// two sides for Downtime.
	Partition
	// SetLossModel installs a new channel loss model (e.g. switch from
	// Bernoulli to Gilbert–Elliott bursts mid-run).
	SetLossModel
	// LinkBreak is one reconfiguration step (Injector.Reconfigure): a
	// link drawn when the action fires breaks, and RepairDelay later a
	// replacement reconnects the two sides — or, with DisableHealing,
	// the self-stabilizing protocol does.
	LinkBreak
	// SubSwap is one subscription-churn step
	// (Injector.ChurnSubscriptions): a random dispatcher swaps one
	// pattern for a fresh draw. A swap aimed at a crashed dispatcher
	// is skipped and counted in Stats.Skipped.
	SubSwap
)

var kindNames = map[Kind]string{
	NodeCrash:    "node-crash",
	NodeRestart:  "node-restart",
	LinkFlap:     "link-flap",
	Partition:    "partition",
	SetLossModel: "set-loss-model",
	LinkBreak:    "link-break",
	SubSwap:      "sub-swap",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Action is one scheduled fault.
type Action struct {
	// At is the virtual time the action fires.
	At sim.Time
	// Kind selects the fault.
	Kind Kind
	// Node is the crash/restart target.
	Node ident.NodeID
	// A, B name the flapped link (LinkFlap) or the two endpoints to
	// separate (Partition).
	A, B ident.NodeID
	// Downtime is how long the fault lasts. A NodeCrash with positive
	// Downtime schedules its own restart; with zero Downtime the node
	// stays down until a matching NodeRestart action (or forever).
	// LinkFlap/Partition restore the cut link after Downtime (zero
	// leaves it to the scenario's ordinary repair machinery).
	Downtime sim.Time
	// NewModel, for SetLossModel, builds the model to install from the
	// run's deterministic stream factory. A constructor rather than an
	// instance: loss chains are stateful, and a plan must be reusable
	// across runs without leaking state between them.
	NewModel func(stream func(tag int64) *rand.Rand) network.LossModel
}

// Plan is a schedule of fault actions. The zero value is an empty plan.
// Plans are read-only during a run and may be shared across runs.
type Plan struct {
	Actions []Action
}

// Validate checks the plan against a system of n dispatchers.
func (p *Plan) Validate(n int) error {
	for i, a := range p.Actions {
		if a.At < 0 {
			return fmt.Errorf("faults: action %d (%v) at negative time %v", i, a.Kind, a.At)
		}
		switch a.Kind {
		case NodeCrash, NodeRestart:
			if int(a.Node) < 0 || int(a.Node) >= n {
				return fmt.Errorf("faults: action %d (%v) targets node %d outside [0,%d)", i, a.Kind, a.Node, n)
			}
		case LinkFlap, Partition:
			if int(a.A) < 0 || int(a.A) >= n || int(a.B) < 0 || int(a.B) >= n || a.A == a.B {
				return fmt.Errorf("faults: action %d (%v) has invalid endpoints %d-%d", i, a.Kind, a.A, a.B)
			}
		case SetLossModel:
			if a.NewModel == nil {
				return fmt.Errorf("faults: action %d (set-loss-model) has no model constructor", i)
			}
		default: // unknown, or generated at run time (LinkBreak, SubSwap)
			return fmt.Errorf("faults: action %d has kind %v, which a plan cannot schedule", i, a.Kind)
		}
	}
	return nil
}

// ChurnPlan builds a deterministic node-churn schedule: crashes arrive
// as a Poisson process with the given rate (crashes/second) over
// [0, duration), each taking down a uniformly chosen currently-up
// dispatcher for an exponentially distributed downtime with the given
// mean (floored at 1 ms). The generator runs on its own seeded RNG —
// it never touches kernel streams — so the same (seed, n, rate,
// duration, meanDowntime) always yields the same plan.
func ChurnPlan(seed int64, n int, rate float64, duration, meanDowntime sim.Time) *Plan {
	plan := &Plan{}
	if rate <= 0 || n < 1 || duration <= 0 {
		return plan
	}
	rng := rand.New(rand.NewSource(seed*-0x61c8864680b583eb + 0x636875726e)) // golden-ratio scramble + "churn"
	meanGap := float64(time.Second) / rate
	downUntil := make([]sim.Time, n)
	t := sim.Time(0)
	for {
		t += sim.Time(rng.ExpFloat64() * meanGap)
		if t >= duration {
			return plan
		}
		v := ident.NodeID(rng.Intn(n))
		if downUntil[v] > t {
			continue // target already down: this crash draw is a no-op
		}
		d := sim.Time(rng.ExpFloat64() * float64(meanDowntime))
		if d < sim.Time(time.Millisecond) {
			d = sim.Time(time.Millisecond)
		}
		plan.Actions = append(plan.Actions, Action{At: t, Kind: NodeCrash, Node: v, Downtime: d})
		downUntil[v] = t + d
	}
}
