package epidemic

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. IV). Each benchmark regenerates its figure through
// the same code path as cmd/experiments, on a reduced scale so
// `go test -bench .` completes in minutes; the full-scale figures are
// produced by `go run ./cmd/experiments -fig all -out results`.
//
// Delivery rates and overheads of the last iteration are attached to
// the benchmark output as custom metrics, so a benchmark run doubles as
// a quick shape-check against the paper's anchors.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// benchFigure regenerates one figure identifier in Quick mode, b.N
// times with distinct seeds, and reports the headline series of the
// last run as custom metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var figs []experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = experiments.Generate(id, experiments.Options{
			Seed:  int64(i + 1),
			Quick: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			last := s.Points[len(s.Points)-1]
			metric := fmt.Sprintf("%s/%s", sanitize(f.ID), sanitize(s.Name))
			b.ReportMetric(last.Y, metric)
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig2DefaultParameters covers the paper's parameter table: it
// measures the cost of one default-scale run skeleton (topology +
// routing state only, zero publish rate) and asserts nothing else; the
// defaults themselves are pinned by TestPublicAPIDefaultsMatchPaperFig2.
func BenchmarkFig2DefaultParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.Seed = int64(i + 1)
		p.PublishRate = 0
		p.Duration = 1e9 // 1 s
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aLossyLinks regenerates the delivery time series under
// lossy links (ε = 0.05 and 0.1).
func BenchmarkFig3aLossyLinks(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFig3bReconfiguration regenerates the delivery time series
// under topological reconfigurations (ρ = 0.2 s and 0.03 s).
func BenchmarkFig3bReconfiguration(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFig4BufferSize regenerates delivery vs buffer size β.
func BenchmarkFig4BufferSize(b *testing.B) { benchFigure(b, "4a") }

// BenchmarkFig4GossipInterval regenerates delivery vs gossip interval T.
func BenchmarkFig4GossipInterval(b *testing.B) { benchFigure(b, "4b") }

// BenchmarkFig5BufferIntervalInterplay regenerates the β × T interplay
// for combined pull.
func BenchmarkFig5BufferIntervalInterplay(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig6Scalability regenerates delivery vs system size N.
func BenchmarkFig6Scalability(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig7ReceiversPerEvent regenerates receivers-per-event vs
// πmax.
func BenchmarkFig7ReceiversPerEvent(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig8PatternsDelivery regenerates delivery vs πmax under low
// and high publish load.
func BenchmarkFig8PatternsDelivery(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9aOverheadVsN regenerates gossip overhead (absolute and
// relative) vs system size.
func BenchmarkFig9aOverheadVsN(b *testing.B) { benchFigure(b, "9a") }

// BenchmarkFig9bOverheadVsPatterns regenerates gossip overhead vs πmax.
func BenchmarkFig9bOverheadVsPatterns(b *testing.B) { benchFigure(b, "9b") }

// BenchmarkFig10OverheadVsErrorRate regenerates gossip overhead vs link
// error rate under high and low load.
func BenchmarkFig10OverheadVsErrorRate(b *testing.B) { benchFigure(b, "10") }

// BenchmarkExtensionPureGossip regenerates the hpcast-style pure
// gossip comparison (EXTENSION, paper Sec. V).
func BenchmarkExtensionPureGossip(b *testing.B) { benchFigure(b, "x-puregossip") }

// BenchmarkExtensionLatency regenerates the recovery-latency
// percentiles (EXTENSION, quantifying paper Sec. IV-C).
func BenchmarkExtensionLatency(b *testing.B) { benchFigure(b, "x-latency") }

// BenchmarkExtensionAdaptive regenerates the closed-loop controller
// matrix: adaptive and hybrid gossip vs the static algorithms across
// fault regimes (EXTENSION, paper Sec. IV-E via [14]).
func BenchmarkExtensionAdaptive(b *testing.B) { benchFigure(b, "x-adaptive") }

// BenchmarkSingleRunCombinedPull measures the raw cost of one small
// combined-pull simulation — the package's end-to-end hot path.
func BenchmarkSingleRunCombinedPull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := smallParams()
		p.Seed = int64(i + 1)
		p.Algorithm = CombinedPull
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
