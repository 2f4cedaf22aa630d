package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// overlayChurnParams builds the convergence-matrix configuration: node
// churn confined to the first 3 seconds of an 8-second run, so the
// last fault plus the convergence bound lands well before the end and
// the monitor always gets to judge the run rather than skip it.
func overlayChurnParams(seed int64, kind topology.Kind, mode RepairMode, alg core.Algorithm) Params {
	p := DefaultParams()
	p.Seed = seed
	p.N = 30
	p.Duration = 8 * time.Second
	p.MeasureFrom = 500 * time.Millisecond
	p.MeasureTo = 7 * time.Second
	p.PublishRate = 10
	p.Algorithm = alg
	p.Gossip = core.DefaultConfig(alg)
	p.Overlay = kind
	p.Repair = mode
	p.FaultPlan = faults.ChurnPlan(seed, p.N, 2, 3*time.Second, 300*time.Millisecond)
	p.Check = &check.Options{Topology: true, Convergence: true}
	return p
}

// TestOverlayChurnConvergenceMatrix is the acceptance matrix: every
// algorithm on every overlay kind over several seeds, under node churn
// with self-stabilizing repair, must reach and retain a legal overlay
// within the convergence bound — the monitor turns any failure into a
// run-aborting violation with a reproducer.
func TestOverlayChurnConvergenceMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, kind := range topology.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, alg := range core.Algorithms() {
				for _, seed := range seeds {
					res, err := Run(overlayChurnParams(seed, kind, RepairSelfStabilizing, alg))
					if err != nil {
						t.Fatalf("seed=%d alg=%s: %v", seed, alg, err)
					}
					if res.Crashes == 0 {
						t.Fatalf("seed=%d alg=%s: plan injected no churn", seed, alg)
					}
					if res.Repair.Rounds == 0 {
						t.Fatalf("seed=%d alg=%s: repair protocol never ran", seed, alg)
					}
					if res.RepairAbandoned != 0 {
						t.Fatalf("seed=%d alg=%s: oracle heals ran under self-stabilizing repair", seed, alg)
					}
				}
			}
		})
	}
}

// TestOverlayChurnOracleConvergence runs the same matrix rows under the
// oracle baseline: the injector's omniscient healing must satisfy the
// same convergence monitor.
func TestOverlayChurnOracleConvergence(t *testing.T) {
	for _, kind := range topology.Kinds() {
		for _, seed := range []int64{1, 2, 3} {
			res, err := Run(overlayChurnParams(seed, kind, RepairOracle, core.CombinedPull))
			if err != nil {
				t.Fatalf("%v seed=%d: %v", kind, seed, err)
			}
			if res.Crashes == 0 {
				t.Fatalf("%v seed=%d: plan injected no churn", kind, seed)
			}
			if res.Repair.Rounds != 0 {
				t.Fatalf("%v seed=%d: repair protocol ran under the oracle", kind, seed)
			}
		}
	}
}

// TestSelfStabilizingRepairReattaches checks the protocol actually did
// the healing work the oracle used to do: crashed-and-restarted
// dispatchers were re-linked, and their isolation time was accounted.
func TestSelfStabilizingRepairReattaches(t *testing.T) {
	p := overlayChurnParams(1, topology.KindTree, RepairSelfStabilizing, core.CombinedPull)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("plan produced no restarts; pick another seed")
	}
	if res.Repair.LinksAdded == 0 {
		t.Error("protocol added no links over a churn run")
	}
	if res.Repair.Reattaches == 0 {
		t.Error("no reattach was accounted despite restarts")
	}
	if res.Repair.Reattaches > 0 && res.Repair.ReattachTotal <= 0 {
		t.Error("reattaches counted but no isolation time accumulated")
	}
}

// TestOverlayChurnFixedSeed pins exact metrics for one fixed seed on
// each non-tree overlay under oracle churn — the overlay analogue of
// TestChurnFixedSeedMetrics. Any change to overlay generation, dedup
// forwarding, or fault execution order shows up here as a bit-level
// diff. Values recorded from the implementation when the test was
// written.
func TestOverlayChurnFixedSeed(t *testing.T) {
	pins := []struct {
		kind              topology.Kind
		rate              float64
		del, exp, rec     uint64
		crashes, restarts uint64
		kernel            uint64
	}{
		{
			kind: topology.KindScaleFree,
			rate: 0.8838959363577725, del: 4957, exp: 5703, rec: 827,
			crashes: 2, restarts: 2, kernel: 36367,
		},
		{
			kind: topology.KindSmallWorld,
			rate: 0.6562029671038486, del: 3714, exp: 5703, rec: 934,
			crashes: 2, restarts: 2, kernel: 32001,
		},
	}
	for i := range pins {
		pin := &pins[i]
		p := overlayChurnParams(7, pin.kind, RepairOracle, core.CombinedPull)
		p.Check = nil
		res, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", pin.kind, err)
		}
		t.Logf("%v: rate=%v del=%d exp=%d rec=%d crashes=%d restarts=%d kernel=%d",
			pin.kind, res.DeliveryRate, res.Deliveries, res.ExpectedDeliveries, res.Recoveries,
			res.Crashes, res.Restarts, res.KernelEvents)
		if res.DeliveryRate != pin.rate ||
			res.Deliveries != pin.del ||
			res.ExpectedDeliveries != pin.exp ||
			res.Recoveries != pin.rec ||
			res.Crashes != pin.crashes ||
			res.Restarts != pin.restarts ||
			res.KernelEvents != pin.kernel {
			t.Errorf("%v metrics drifted from pinned values:\n got rate=%v del=%d exp=%d rec=%d crash=%d restart=%d kernel=%d\nwant rate=%v del=%d exp=%d rec=%d crash=%d restart=%d kernel=%d",
				pin.kind,
				res.DeliveryRate, res.Deliveries, res.ExpectedDeliveries, res.Recoveries,
				res.Crashes, res.Restarts, res.KernelEvents,
				pin.rate, pin.del, pin.exp, pin.rec, pin.crashes, pin.restarts, pin.kernel)
		}
	}
}

// TestOverlayParamValidation pins normalize's compatibility rules for
// the new knobs. A case with an empty want must be accepted.
func TestOverlayParamValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"unknown-overlay", func(p *Params) { p.Overlay = topology.Kind(99) }, "unknown overlay"},
		{"unknown-repair", func(p *Params) { p.Repair = RepairMode(99) }, "unknown RepairMode"},
		{"reconfig-on-scale-free", func(p *Params) {
			p.Overlay = topology.KindScaleFree
			p.ReconfigInterval = time.Second
		}, "ReconfigInterval needs the tree overlay"},
		{"self-stab-with-shards", func(p *Params) {
			p.Repair = RepairSelfStabilizing
			p.Shards = 2 // accepted and ignored
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			if tc.want == "" {
				if _, err := p.normalize(); err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if _, err := Run(p); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDefaultParamsAreTreeOracle pins the opt-in property: the zero
// values of the new knobs reproduce the paper's configuration, which
// the golden fixed-seed tests pin bit for bit.
func TestDefaultParamsAreTreeOracle(t *testing.T) {
	p := DefaultParams()
	if p.Overlay != topology.KindTree {
		t.Errorf("default overlay = %v, want tree", p.Overlay)
	}
	if p.Repair != RepairOracle {
		t.Errorf("default repair = %v, want oracle", p.Repair)
	}
	if mode, err := ParseRepairMode("self-stabilizing"); err != nil || mode != RepairSelfStabilizing {
		t.Errorf("ParseRepairMode(self-stabilizing) = %v, %v", mode, err)
	}
	if _, err := ParseRepairMode("bogus"); err == nil {
		t.Error("ParseRepairMode accepted bogus input")
	}
}

// TestSelfStabilizingDeterministicReplay extends the churn replay pin
// to the new repair mode and overlays: same seed, same plan, same
// protocol → bit-identical results.
func TestSelfStabilizingDeterministicReplay(t *testing.T) {
	for _, kind := range topology.Kinds() {
		p := overlayChurnParams(5, kind, RepairSelfStabilizing, core.CombinedPull)
		p.Check = nil
		a, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if a.DeliveryRate != b.DeliveryRate ||
			a.Deliveries != b.Deliveries ||
			a.KernelEvents != b.KernelEvents ||
			a.Repair != b.Repair {
			t.Fatalf("%v: replay diverged:\n  a=%+v\n  b=%+v", kind, a, b)
		}
	}
}

// TestFaultSelfStabilizingReconfiguration runs the paper's
// reconfiguration model (ρ = 250 ms on the golden parameters) under
// the self-stabilizing repair protocol instead of the oracle's
// replacement link: every algorithm must run clean under all monitors,
// replay bit for bit, and the protocol — not the oracle — must be what
// re-links the splits.
func TestFaultSelfStabilizingReconfiguration(t *testing.T) {
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			params := func() Params {
				p := goldenCheckParams(alg, 250*time.Millisecond)
				p.Repair = RepairSelfStabilizing
				p.Check = check.All()
				return p
			}
			a, err := Run(params())
			if err != nil {
				t.Fatalf("checked run reported a violation: %v", err)
			}
			b, err := Run(params())
			if err != nil {
				t.Fatal(err)
			}
			if a.Reconfigurations == 0 {
				t.Fatal("no reconfigurations")
			}
			if a.Repair.LinksAdded == 0 {
				t.Fatal("self-stabilizing protocol added no link after the reconfigurations")
			}
			a.Params, b.Params = Params{}, Params{}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
			}
		})
	}
}
