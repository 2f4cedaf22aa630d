package scenario

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/network"
)

// churnParams is the shared configuration of the churn tests: small
// enough to run in milliseconds, busy enough that crashes, healing,
// rejoin, and recovery all actually happen.
func churnParams() Params {
	p := DefaultParams()
	p.Seed = 7
	p.N = 30
	p.Duration = 4 * time.Second
	p.MeasureFrom = 500 * time.Millisecond
	p.MeasureTo = 3500 * time.Millisecond
	p.PublishRate = 20
	p.Algorithm = core.CombinedPull
	p.Gossip = core.DefaultConfig(core.CombinedPull)
	p.FaultPlan = faults.ChurnPlan(p.Seed, p.N, 2, p.Duration, 300*time.Millisecond)
	return p
}

// TestChurnFaultPlanDeterministicReplay pins the acceptance criterion:
// same seed + same fault plan → bit-identical results, run after run.
func TestChurnFaultPlanDeterministicReplay(t *testing.T) {
	p := churnParams()
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashes == 0 || a.Restarts == 0 {
		t.Fatalf("plan injected no churn: crashes=%d restarts=%d", a.Crashes, a.Restarts)
	}
	if a.DeliveryRate != b.DeliveryRate ||
		a.Deliveries != b.Deliveries ||
		a.ExpectedDeliveries != b.ExpectedDeliveries ||
		a.Recoveries != b.Recoveries ||
		a.Crashes != b.Crashes ||
		a.Restarts != b.Restarts ||
		a.NodeDowntime != b.NodeDowntime ||
		a.KernelEvents != b.KernelEvents {
		t.Fatalf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if len(a.TimeSeries) != len(b.TimeSeries) {
		t.Fatalf("time series length diverged: %d vs %d", len(a.TimeSeries), len(b.TimeSeries))
	}
	for i := range a.TimeSeries {
		if a.TimeSeries[i] != b.TimeSeries[i] {
			t.Fatalf("time series bucket %d diverged: %+v vs %+v", i, a.TimeSeries[i], b.TimeSeries[i])
		}
	}
}

// TestChurnRecoversDeliveries checks the qualitative story: under node
// churn, the epidemic recovery algorithm still delivers the vast
// majority of expected events, and far more than the bare tree.
func TestChurnRecoversDeliveries(t *testing.T) {
	p := churnParams()
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate < 0.75 {
		t.Errorf("combined pull under churn delivered only %.3f", res.DeliveryRate)
	}
	if res.DeliveryRate > 1+1e-9 {
		t.Errorf("delivery rate %.6f exceeds 1: downtime accounting is inconsistent", res.DeliveryRate)
	}
	if res.NodeDowntime <= 0 {
		t.Errorf("no downtime recorded despite %d crashes", res.Crashes)
	}

	p.Algorithm = core.NoRecovery
	p.Gossip = core.DefaultConfig(core.NoRecovery)
	bare, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if bare.DeliveryRate+0.1 >= res.DeliveryRate {
		t.Errorf("recovery gained too little: bare=%.3f recovered=%.3f", bare.DeliveryRate, res.DeliveryRate)
	}
}

// TestFaultCrashExcludesDowntimeDeliveries crashes one dispatcher for a
// fixed window and checks the Λ accounting: expected deliveries shrink
// relative to the fault-free run (the dead subscriber is not expected
// to receive), downtime is recorded, and the rate stays a true ratio.
func TestFaultCrashExcludesDowntimeDeliveries(t *testing.T) {
	p := DefaultParams()
	p.Seed = 11
	p.N = 20
	p.Duration = 3 * time.Second
	p.MeasureFrom = 200 * time.Millisecond
	p.MeasureTo = 2800 * time.Millisecond
	p.PublishRate = 30
	p.Algorithm = core.Push
	p.Gossip = core.DefaultConfig(core.Push)

	base, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}

	p.FaultPlan = &faults.Plan{Actions: []faults.Action{
		{At: time.Second, Kind: faults.NodeCrash, Node: 3, Downtime: time.Second},
	}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("plan execution: crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.NodeDowntime < time.Second {
		t.Errorf("downtime %v < scheduled 1s", res.NodeDowntime)
	}
	if res.ExpectedDeliveries >= base.ExpectedDeliveries {
		t.Errorf("expected deliveries did not shrink: %d (fault) vs %d (base)",
			res.ExpectedDeliveries, base.ExpectedDeliveries)
	}
	if res.DeliveryRate > 1+1e-9 {
		t.Errorf("delivery rate %.6f exceeds 1", res.DeliveryRate)
	}
}

// TestFaultPartitionCutsAndHeals partitions two distant dispatchers and
// checks the link comes back.
func TestFaultPartitionCutsAndHeals(t *testing.T) {
	p := DefaultParams()
	p.Seed = 3
	p.N = 16
	p.Duration = 2 * time.Second
	p.MeasureFrom = 100 * time.Millisecond
	p.MeasureTo = 1900 * time.Millisecond
	p.PublishRate = 10
	p.Algorithm = core.SubscriberPull
	p.Gossip = core.DefaultConfig(core.SubscriberPull)
	p.FaultPlan = &faults.Plan{Actions: []faults.Action{
		{At: 500 * time.Millisecond, Kind: faults.Partition, A: 0, B: 15, Downtime: 300 * time.Millisecond},
	}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Fatalf("partitions = %d, want 1", res.Partitions)
	}
	if res.DeliveryRate < 0.6 {
		t.Errorf("delivery rate %.3f too low for a 300ms partition with recovery", res.DeliveryRate)
	}
}

// TestFaultLossModelSwitch swaps Bernoulli for heavy Gilbert–Elliott
// bursts mid-run and checks the switch is applied and hurts delivery.
func TestFaultLossModelSwitch(t *testing.T) {
	p := DefaultParams()
	p.Seed = 5
	p.N = 20
	p.Duration = 3 * time.Second
	p.MeasureFrom = 100 * time.Millisecond
	p.MeasureTo = 2900 * time.Millisecond
	p.PublishRate = 20
	p.Network.LossRate = 0 // lossless start

	clean, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.FaultPlan = &faults.Plan{Actions: []faults.Action{
		{At: time.Second, Kind: faults.SetLossModel, NewModel: func(stream func(int64) *rand.Rand) network.LossModel {
			return network.NewGilbertElliott(network.GilbertElliottConfig{
				PGoodToBad: 0.2, PBadToGood: 0.2, DropGood: 0, DropBad: 1,
			}, stream)
		}},
	}}
	lossy, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.DeliveryRate >= clean.DeliveryRate {
		t.Errorf("burst losses did not hurt: clean=%.3f lossy=%.3f", clean.DeliveryRate, lossy.DeliveryRate)
	}
}

// TestBurstLossScenarioDeterministic runs a whole scenario under the
// Gilbert–Elliott model and pins replay determinism.
func TestBurstLossScenarioDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Seed = 9
	p.N = 25
	p.Duration = 2 * time.Second
	p.MeasureFrom = 200 * time.Millisecond
	p.MeasureTo = 1800 * time.Millisecond
	p.PublishRate = 15
	p.Algorithm = core.CombinedPull
	p.Gossip = core.DefaultConfig(core.CombinedPull)
	p.Network.LossRate = 0
	p.NewLossModel = func(stream func(int64) *rand.Rand) network.LossModel {
		return network.NewGilbertElliott(network.GilbertElliottConfig{
			PGoodToBad: 0.05, PBadToGood: 0.4, DropGood: 0.01, DropBad: 0.9,
		}, stream)
	}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveryRate != b.DeliveryRate || a.Deliveries != b.Deliveries || a.KernelEvents != b.KernelEvents {
		t.Fatalf("burst-loss replay diverged: %+v vs %+v", a, b)
	}
	if a.DeliveryRate <= 0 || a.DeliveryRate > 1 {
		t.Fatalf("implausible delivery rate %.3f", a.DeliveryRate)
	}
	if a.Recoveries == 0 {
		t.Error("no recoveries under heavy-drop bursts")
	}
}

// TestChurnFixedSeedMetrics pins exact metrics for one fixed seed and
// plan — the CI fault-matrix smoke. Any change to fault execution
// order, RNG stream use, or downtime accounting shows up here as a
// bit-level diff. Values recorded from the implementation at the time
// this test was written; see the golden test for the fault-free pins.
func TestChurnFixedSeedMetrics(t *testing.T) {
	p := churnParams()
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := struct {
		rate              float64
		del, exp, rec     uint64
		crashes, restarts uint64
		downtime          time.Duration
		kernel            uint64
	}{
		rate:     0.8277351247600768,
		del:      4493,
		exp:      5531,
		rec:      965,
		crashes:  5,
		restarts: 4, // the last crash is still down at run end
		downtime: 1718206963 * time.Nanosecond,
		kernel:   24629,
	}
	if res.DeliveryRate != want.rate ||
		res.Deliveries != want.del ||
		res.ExpectedDeliveries != want.exp ||
		res.Recoveries != want.rec ||
		res.Crashes != want.crashes ||
		res.Restarts != want.restarts ||
		res.NodeDowntime != want.downtime ||
		res.KernelEvents != want.kernel {
		t.Errorf("churn metrics drifted from pinned values:\n got rate=%v del=%d exp=%d rec=%d crash=%d restart=%d down=%v kernel=%d\nwant rate=%v del=%d exp=%d rec=%d crash=%d restart=%d down=%v kernel=%d",
			res.DeliveryRate, res.Deliveries, res.ExpectedDeliveries, res.Recoveries,
			res.Crashes, res.Restarts, res.NodeDowntime, res.KernelEvents,
			want.rate, want.del, want.exp, want.rec,
			want.crashes, want.restarts, want.downtime, want.kernel)
	}
}

// TestReconfigSkipCounted drives the re-draw path directly: with a
// 2-node topology whose only link is permanently flapped down just
// before each reconfiguration epoch, every epoch must be counted as
// skipped instead of silently dropped.
func TestReconfigSkipCounted(t *testing.T) {
	p := DefaultParams()
	p.Seed = 2
	p.N = 2
	p.PatternsPerNode = 1
	p.Duration = 1 * time.Second
	p.MeasureFrom = 1 * time.Millisecond
	p.MeasureTo = 999 * time.Millisecond
	p.PublishRate = 5
	p.ReconfigInterval = 300 * time.Millisecond
	p.RepairDelay = 10 * time.Second // broken links stay broken
	// Cut the only link before the first reconfiguration epoch and
	// never restore it: every epoch sees an empty topology.
	p.FaultPlan = &faults.Plan{Actions: []faults.Action{
		{At: 100 * time.Millisecond, Kind: faults.LinkFlap, A: 0, B: 1},
	}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkFlaps != 1 {
		t.Fatalf("link flaps = %d, want 1", res.LinkFlaps)
	}
	if res.Reconfigurations != 0 {
		t.Errorf("reconfigurations = %d, want 0 (no link to break)", res.Reconfigurations)
	}
	if res.ReconfigSkips == 0 {
		t.Error("no reconfiguration skips counted")
	}
}
