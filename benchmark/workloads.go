package main

import (
	"time"

	"repro/internal/core"
)

// workloadFunc runs one workload. tr is nil in the measured run.
type workloadFunc func(cfg runConfig, tr *tracer) (*outcome, error)

// workloads maps each name in BENCHMARK.json to its implementation. The
// reason each exists is the "why" in that file; README.md has the long
// form, with the layer that dominates each.
var workloads = map[string]workloadFunc{
	"sim-paper":   runSimPaper,
	"sim-scale":   func(cfg runConfig, tr *tracer) (*outcome, error) { return runSimScale(cfg, tr, 1) },
	"sim-sharded": func(cfg runConfig, tr *tracer) (*outcome, error) { return runSimScale(cfg, tr, 2) },
	"sim-churn":   runSimChurn,
	"live-lossy": func(cfg runConfig, tr *tracer) (*outcome, error) {
		return runLive(liveShape{
			name: "live-lossy", nodes: 400, degree: 4, patterns: 20, publishers: 8,
			rate: 2000, paced: 20 * time.Second, algo: core.CombinedPull, drop: 0.05,
		}, cfg, tr)
	},
	// 4,000 publishes/s × 20 subscribers = 80k deliveries/s, about half
	// the rate at which this dispatcher configuration collapsed on the
	// box the shapes were sized on.
	"live-fastpath": func(cfg runConfig, tr *tracer) (*outcome, error) {
		return runLive(liveShape{
			name: "live-fastpath", nodes: 400, degree: 4, patterns: 20, publishers: 8,
			rate: 4000, paced: 20 * time.Second, algo: core.NoRecovery, drop: 0,
		}, cfg, tr)
	},
}
