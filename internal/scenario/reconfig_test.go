package scenario

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// reconfigPin is the observable trajectory of the paper's
// reconfiguration model over one run: how many links broke and were
// replaced, a digest of the (time, broken link, replacement link)
// sequence in trace order, and the run's kernel event count.
type reconfigPin struct {
	breaks, replacements uint64
	skips                uint64
	digest               uint64
	kernel               uint64
}

// reconfigSequence runs p with a trace and folds every LinkDown and
// LinkUp record — without a fault plan these come only from the
// reconfiguration generator and its replacement links — into a
// reconfigPin.
func reconfigSequence(t *testing.T, p Params) reconfigPin {
	t.Helper()
	const capacity = 1 << 22
	p.Trace = trace.New(capacity)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace.Total() > capacity {
		t.Fatalf("trace overflowed: %d records > %d", p.Trace.Total(), capacity)
	}
	h := fnv.New64a()
	var buf [17]byte
	put := func(b []byte, v uint64) {
		for i := range 8 {
			b[i] = byte(v >> (8 * i))
		}
	}
	var pin reconfigPin
	for _, r := range p.Trace.Snapshot() {
		switch r.Kind {
		case trace.LinkDown:
			pin.breaks++
		case trace.LinkUp:
			pin.replacements++
		default:
			continue
		}
		put(buf[0:8], uint64(r.At))
		buf[8] = byte(r.Kind)
		put(buf[9:17], uint64(uint32(r.Node))<<32|uint64(uint32(r.Peer)))
		h.Write(buf[:])
	}
	if pin.breaks != res.Reconfigurations {
		t.Fatalf("trace saw %d link breaks, Result.Reconfigurations = %d", pin.breaks, res.Reconfigurations)
	}
	pin.skips = res.ReconfigSkips
	pin.digest = h.Sum64()
	pin.kernel = res.KernelEvents
	return pin
}

// TestReconfigSequenceFixedSeed pins the exact reconfiguration
// trajectory — when each link broke, which one, and which replacement
// reconnected the two sides when — on the golden parameters and on
// Fig. 3b's two reconfiguration intervals. Any change to the order of
// "reco" stream draws, to kernel tie-breaking between the driver and
// the rest of the run, or to the oracle repair's retry policy shows up
// here as a digest diff.
func TestReconfigSequenceFixedSeed(t *testing.T) {
	fig3b := func(rho time.Duration) Params {
		p := DefaultParams()
		p.Duration = 5 * time.Second
		p.ReconfigInterval = rho
		return p
	}
	for _, tc := range []struct {
		name string
		p    Params
		want reconfigPin
	}{
		{"golden-250ms", goldenCheckParams(core.NoRecovery, 250*time.Millisecond),
			reconfigPin{breaks: 8, replacements: 7, digest: 17185976173941871795, kernel: 5257}},
		{"fig3b-200ms", fig3b(200 * time.Millisecond),
			reconfigPin{breaks: 25, replacements: 24, digest: 1738224935646260695, kernel: 399970}},
		{"fig3b-30ms", fig3b(30 * time.Millisecond),
			reconfigPin{breaks: 166, replacements: 163, digest: 13501312870413806818, kernel: 398406}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := reconfigSequence(t, tc.p); got != tc.want {
				t.Errorf("reconfiguration trajectory drifted:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestFaultRejoinDropsStaleReplacement pins the fix for stale oracle
// repairs. On two dispatchers every reconfiguration breaks the only
// link, 0-1. The first break (200 ms) is mended early: node 0 crashes
// and its restart (240 ms) re-attaches it to node 1, so the replacement
// due at 300 ms finds the link present and must drop. A repair that
// kept retrying instead would, at 400 ms, re-add the link in the very
// instant the second break removed it — stealing that break's repair
// and leaving every later outage zero-length. Every later break must
// instead be replaced exactly RepairDelay after it.
func TestFaultRejoinDropsStaleReplacement(t *testing.T) {
	p := DefaultParams()
	p.N = 2
	p.PatternsPerNode = 1
	p.Duration = 2 * time.Second
	p.PublishRate = 5
	p.ReconfigInterval = 200 * time.Millisecond
	p.FaultPlan = &faults.Plan{Actions: []faults.Action{
		{At: 220 * time.Millisecond, Kind: faults.NodeCrash, Node: 0, Downtime: 20 * time.Millisecond},
	}}
	p.Trace = trace.New(1 << 16)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 1 || res.Reconfigurations != 10 {
		t.Fatalf("crashes=%d restarts=%d reconfigurations=%d, want 1/1/10", res.Crashes, res.Restarts, res.Reconfigurations)
	}
	links := p.Trace.Filter(func(r trace.Record) bool { return r.Kind == trace.LinkDown || r.Kind == trace.LinkUp })
	var down sim.Time = -1
	for _, r := range links {
		switch {
		case r.Kind == trace.LinkDown:
			down = r.At
		case r.At-down != p.RepairDelay:
			t.Errorf("link broken at %v replaced at %v, want %v later", down, r.At, p.RepairDelay)
		}
	}
	if ups := p.Trace.Count(trace.LinkUp); ups != 8 {
		t.Errorf("%d replacement links, want 8 (breaks at 400ms..1.8s; the 2s one is still pending)", ups)
	}
}
