// Command bench runs the hot-path micro-benchmarks of internal/bench
// and appends one entry to the benchmark trajectory file
// (BENCH_hotpath.json by default). Every PR that touches a hot path
// re-runs it, so the file records how the per-event cost of the
// simulator evolves over time:
//
//	go run ./cmd/bench -label "pr1-pooled-kernel"
//
// The label defaults to bench-<git short hash>, so a plain
// `go run ./cmd/bench` records a correctly attributed entry. With
// -cpuprofile/-memprofile the run writes pprof profiles of the suite,
// so the next perf investigation starts from a profile rather than a
// guess. With -gate the command runs only the EndToEnd benchmark and
// exits non-zero when its ns/op regressed more than the tolerance
// against the latest trajectory entry, without appending anything.
//
// Compare entries with any JSON tool; the interesting columns are
// ns_per_op and allocs_per_op on the kernel and network paths, and
// sim_events_per_sec end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// The measurement and entry schema lives in internal/bench
// (trajectory.go), shared with cmd/livebench which merges live-network
// measurements into the same file.

func main() {
	label := flag.String("label", "", "trajectory label for this run (default bench-<git short hash>)")
	out := flag.String("out", "BENCH_hotpath.json", "trajectory file to append to")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the benchmark run to this file")
	gate := flag.Bool("gate", false, "regression gate: compare a fresh EndToEnd run against the latest trajectory entry and exit 1 on regression; appends nothing")
	gateTrajectory := flag.Bool("gate-trajectory", false, "regression gate: compare the two latest recorded entries (no benchmark run, hardware-independent); exit 1 on regression")
	gateTolerance := flag.Float64("gate-tolerance", 0.10, "allowed fractional EndToEnd ns/op regression in gate modes")
	flag.Parse()
	if *label == "" {
		if c := gitCommit(); c != "" {
			*label = "bench-" + c
		} else {
			*label = "bench-local"
		}
	}

	// Validate the trajectory file before spending minutes on the
	// benchmarks themselves.
	trajectory, err := bench.LoadTrajectory(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	if *gateTrajectory {
		os.Exit(runGateTrajectory(trajectory, *out, *gateTolerance))
	}
	if *gate {
		os.Exit(runGate(trajectory, *out, *gateTolerance))
	}

	suite := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"KernelScheduleDispatch", bench.KernelScheduleDispatch},
		{"KernelScheduleCancel", bench.KernelScheduleCancel},
		{"NetworkSend", bench.NetworkSend},
		{"MetricsTracker", bench.MetricsTracker},
		{"GossipRound", bench.GossipRound},
		{"DigestBuild", bench.DigestBuild},
		{"LostBuffer", bench.LostBuffer},
		{"EndToEnd", bench.EndToEnd},
		{"EndToEndChecked", bench.EndToEndChecked},
		{"AdaptiveChurn", bench.AdaptiveChurn},
		{"Scale10k", bench.Scale10k},
		{"Install10k", bench.Install10k},
		{"MetricsPipelineExact", bench.MetricsPipelineExact},
		{"MetricsPipelineStreaming", bench.MetricsPipelineStreaming},
		{"Heavy10k", bench.Heavy10k},
		{"Heavy10kStreaming", bench.Heavy10kStreaming},
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	e := bench.Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Benchmarks: make(map[string]bench.Measurement, len(suite)),
	}
	for _, s := range suite {
		r := testing.Benchmark(s.fn)
		m := toMeasurement(r)
		e.Benchmarks[s.name] = m
		fmt.Printf("%-24s %12.1f ns/op %8d allocs/op %10d B/op", s.name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		if m.SimEventsPerSec > 0 {
			fmt.Printf(" %14.0f simevents/s", m.SimEventsPerSec)
		}
		fmt.Println()
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: creating %s: %v\n", *memProfile, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing allocation profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	trajectory = append(trajectory, e)
	if err := bench.SaveTrajectory(*out, trajectory); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("appended %q to %s (%d entries)\n", *label, *out, len(trajectory))
}

// runGate compares a fresh EndToEnd run against the latest trajectory
// entry and returns the process exit code. The tolerance absorbs run
// noise; cross-machine comparisons (a CI runner judging numbers
// recorded on a dev box) should widen it via -gate-tolerance.
func runGate(trajectory []bench.Entry, out string, tolerance float64) int {
	if len(trajectory) == 0 {
		fmt.Fprintf(os.Stderr, "bench: gate: %s has no entries to compare against\n", out)
		return 1
	}
	base, ok := trajectory[len(trajectory)-1].Benchmarks["EndToEnd"]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: gate: latest entry %q has no EndToEnd measurement\n", trajectory[len(trajectory)-1].Label)
		return 1
	}
	m := toMeasurement(testing.Benchmark(bench.EndToEnd))
	limit := base.NsPerOp * (1 + tolerance)
	fmt.Printf("gate: EndToEnd %.0f ns/op vs baseline %q %.0f ns/op (limit %.0f, tolerance %.0f%%)\n",
		m.NsPerOp, trajectory[len(trajectory)-1].Label, base.NsPerOp, limit, tolerance*100)
	if m.NsPerOp > limit {
		fmt.Fprintf(os.Stderr, "bench: gate: EndToEnd regressed %.1f%% (> %.0f%% allowed)\n",
			(m.NsPerOp/base.NsPerOp-1)*100, tolerance*100)
		return 1
	}
	return 0
}

// runGateTrajectory enforces the per-PR regression budget on the
// recorded trajectory itself: the latest entry's EndToEnd ns/op may
// not exceed the previous entry's by more than the tolerance. Entries
// are recorded on one machine per PR, so unlike runGate this
// comparison is deterministic and hardware-independent — it runs no
// benchmark at all.
func runGateTrajectory(trajectory []bench.Entry, out string, tolerance float64) int {
	if len(trajectory) < 2 {
		fmt.Printf("gate: %s has %d entries; nothing to compare\n", out, len(trajectory))
		return 0
	}
	prev, cur := trajectory[len(trajectory)-2], trajectory[len(trajectory)-1]
	base, okBase := prev.Benchmarks["EndToEnd"]
	last, okLast := cur.Benchmarks["EndToEnd"]
	if !okBase || !okLast {
		fmt.Fprintf(os.Stderr, "bench: gate: entries %q/%q lack EndToEnd measurements\n", prev.Label, cur.Label)
		return 1
	}
	limit := base.NsPerOp * (1 + tolerance)
	fmt.Printf("gate: recorded EndToEnd %q %.0f ns/op vs %q %.0f ns/op (limit %.0f)\n",
		cur.Label, last.NsPerOp, prev.Label, base.NsPerOp, limit)
	if last.NsPerOp > limit {
		fmt.Fprintf(os.Stderr, "bench: gate: recorded EndToEnd regressed %.1f%% (> %.0f%% allowed)\n",
			(last.NsPerOp/base.NsPerOp-1)*100, tolerance*100)
		return 1
	}
	return 0
}

func toMeasurement(r testing.BenchmarkResult) bench.Measurement {
	m := bench.Measurement{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if v, ok := r.Extra["simevents/s"]; ok {
		m.SimEventsPerSec = v
	}
	return m
}

// gitCommit returns the short HEAD hash, or "" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
