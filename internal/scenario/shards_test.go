package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestShardsIsAcceptedNoOp pins that Params.Shards is accepted and
// ignored: with Shards=2, invariant checking, a trace ring, and
// self-stabilizing repair under node churn each run without error, and the
// Result equals the Shards=1 run's bit for bit once Params (which echoes
// the Shards value) is zeroed.
func TestShardsIsAcceptedNoOp(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params func() Params
	}{
		{"check", func() Params {
			p := goldenCheckParams(core.CombinedPull, 250*time.Millisecond)
			p.Check = check.All()
			return p
		}},
		{"trace", func() Params {
			p := goldenCheckParams(core.CombinedPull, 250*time.Millisecond)
			p.Trace = trace.New(1 << 12)
			return p
		}},
		{"self-stab-churn", func() Params {
			return overlayChurnParams(1, topology.KindScaleFree, RepairSelfStabilizing, core.CombinedPull)
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seqP := tc.params()
			seq, err := Run(seqP)
			if err != nil {
				t.Fatalf("Shards=1: %v", err)
			}
			shP := tc.params()
			shP.Shards = 2
			sh, err := Run(shP)
			if err != nil {
				t.Fatalf("Shards=2: %v", err)
			}
			if sh.Params.Shards != 2 {
				t.Errorf("Result.Params.Shards = %d, want the accepted value 2", sh.Params.Shards)
			}
			seq.Params, sh.Params = Params{}, Params{}
			if !reflect.DeepEqual(seq, sh) {
				t.Errorf("Shards=2 result differs from Shards=1:\nShards=1: %+v\nShards=2: %+v", seq, sh)
			}
			if seqP.Trace == nil {
				return
			}
			if seqP.Trace.Total() == 0 {
				t.Fatal("traced run recorded nothing")
			}
			if a, b := seqP.Trace.Total(), shP.Trace.Total(); a != b {
				t.Errorf("trace totals differ: Shards=1 %d, Shards=2 %d", a, b)
			}
			for k := trace.Publish; k <= trace.NodeUp; k++ {
				if a, b := seqP.Trace.Count(k), shP.Trace.Count(k); a != b {
					t.Errorf("trace %v count differs: Shards=1 %d, Shards=2 %d", k, a, b)
				}
			}
			if !reflect.DeepEqual(seqP.Trace.Snapshot(), shP.Trace.Snapshot()) {
				t.Error("trace ring contents differ between Shards=1 and Shards=2")
			}
		})
	}
}
