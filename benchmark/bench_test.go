package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/ident"
)

func TestHistQuantileWithinTwoPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]int64, 200_000)
	for i := range samples {
		// Log-uniform over 1 µs .. 10 s: every octave the live latencies
		// can land in.
		samples[i] = int64(math.Exp(rng.Float64()*math.Log(1e7)) * 1e3)
		h.Record(samples[i])
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(samples[int(math.Ceil(q*float64(len(samples))))-1])
		got := h.Quantile(q)
		if err := math.Abs(got-want) / want; err > 0.02 {
			t.Errorf("Quantile(%v) = %v, sorted sample %v: error %.2f%% > 2%%", q, got, want, 100*err)
		}
	}
	if h.Count() != uint64(len(samples)) || h.Max() != samples[len(samples)-1] {
		t.Errorf("Count, Max = %d, %d; want %d, %d", h.Count(), h.Max(), len(samples), samples[len(samples)-1])
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prevHi := int64(0)
	for i := 0; i < len((&hist{}).buckets); i++ {
		lo, hi := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if histBucket(lo) != i || histBucket(hi-1) != i {
			t.Fatalf("bucket %d = [%d, %d) but its edges map to %d and %d", i, lo, hi, histBucket(lo), histBucket(hi-1))
		}
		if lo >= 64 && float64(hi-lo)/float64(lo) > 0.02 {
			t.Fatalf("bucket %d = [%d, %d) is wider than 2%%", i, lo, hi)
		}
		prevHi = hi
	}
	var h hist
	h.Record(-5)
	h.Record(math.MaxInt64)
	if h.Quantile(0) != 0 || h.Max() != math.MaxInt64 {
		t.Errorf("extremes: Quantile(0) = %v, Max = %d", h.Quantile(0), h.Max())
	}
}

// fakeClock is an open-loop clock that only moves when told to.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d }

func TestOpenLoopStampsDueTimesAndAccountsAStall(t *testing.T) {
	const (
		n     = 100
		rate  = 1000.0 // one per millisecond
		stall = 20 * time.Millisecond
	)
	clock := &fakeClock{now: 5 * time.Second}
	var lag hist
	var dues, issuedAt []time.Duration
	openLoop(n, rate, clock.now, clock.Now, clock.Sleep, &lag, func(i int, due time.Duration) {
		dues = append(dues, due)
		issuedAt = append(issuedAt, clock.now)
		if i == 10 {
			clock.now += stall // the system blocks the generator
		}
	})
	for i, due := range dues {
		if want := 5*time.Second + time.Duration(i)*time.Millisecond; due != want {
			t.Fatalf("operation %d due at %v, want %v: the stall moved the schedule", i, due, want)
		}
		late := issuedAt[i] - due
		switch {
		case i <= 10 && late != 0:
			t.Errorf("operation %d issued %v late before any stall", i, late)
		case i > 10 && i <= 30 && late != stall-time.Duration(i-10)*time.Millisecond:
			t.Errorf("operation %d issued %v late, want %v", i, late, stall-time.Duration(i-10)*time.Millisecond)
		case i > 30 && late != 0:
			t.Errorf("operation %d issued %v late after the backlog cleared", i, late)
		}
	}
	if lag.Count() != n {
		t.Errorf("lag has %d samples, want %d", lag.Count(), n)
	}
	if got, want := time.Duration(lag.Max()), stall-time.Millisecond; got != want {
		t.Errorf("max lag %v, want %v", got, want)
	}
	// 19 of 100 operations ran late, so the lag's p50 is 0 and its p99
	// sits in the stall.
	if lag.Quantile(0.5) != 0 || lag.Quantile(0.99) < float64(17*time.Millisecond) {
		t.Errorf("lag p50 = %v, p99 = %v", lag.Quantile(0.5), lag.Quantile(0.99))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: union 10..60
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "leaf", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	ran := false
	if s := tr.time("y", id, func(int) { ran = true }); !ran || s < 0 {
		t.Errorf("nil tracer: ran = %v, seconds = %v", ran, s)
	}
	if err := tr.write(t.TempDir()); err != nil {
		t.Error(err)
	}
}

func TestLiveExpectedOracle(t *testing.T) {
	in := liveInputs{
		subs:       []ident.PatternID{0, 1, 0, 2, 0},
		publishers: []int{0, 3},
		content:    []ident.PatternID{0, 0, 1, 2, 3},
	}
	// Pattern 0 has three subscribers (node 0, a publisher, among them),
	// 1 and 2 one each, 3 none.
	if got := in.expected(); got != 3+3+1+1+0 {
		t.Errorf("expected() = %d, want 8", got)
	}

	sh := liveShape{patterns: 20, publishers: 8}
	a, b := makeLiveInputs(sh, 400, 1000, 7), makeLiveInputs(sh, 400, 1000, 7)
	c := makeLiveInputs(sh, 400, 1000, 8)
	same := func(x, y []ident.PatternID) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(a.subs, b.subs) || !same(a.content, b.content) {
		t.Error("the same seed gave different inputs")
	}
	if same(a.subs, c.subs) && same(a.content, c.content) {
		t.Error("different seeds gave the same inputs")
	}
	audience := map[ident.PatternID]int{}
	for _, p := range a.subs {
		audience[p]++
	}
	for p := 0; p < sh.patterns; p++ {
		if audience[ident.PatternID(p)] != 400/sh.patterns {
			t.Errorf("pattern %d has %d subscribers, want %d", p, audience[ident.PatternID(p)], 400/sh.patterns)
		}
	}
	if a.expected() != uint64(1000*400/sh.patterns) {
		t.Errorf("expected() = %d, want %d", a.expected(), 1000*400/sh.patterns)
	}
}

func TestLiveObserverFlagsMismatchAndDuplicate(t *testing.T) {
	in := liveInputs{subs: []ident.PatternID{4, 5}, publishers: []int{0}, content: []ident.PatternID{4, 4}}
	o := newLiveObserver(in, 1000, true)
	ev := probeEvent(1)
	ev.ID.Source, ev.Content = 0, []ident.PatternID{4}
	o.onDeliver(0, ev, false)
	o.onDeliver(0, ev, true)  // same (node, event) again
	o.onDeliver(1, ev, false) // node 1 subscribes to 5, not 4
	if o.delivered.Load() != 3 || o.duplicates.Load() != 1 || o.mismatched.Load() != 1 {
		t.Errorf("delivered, duplicates, mismatched = %d, %d, %d; want 3, 1, 1",
			o.delivered.Load(), o.duplicates.Load(), o.mismatched.Load())
	}
	if o.routed.Count() != 2 || o.recovered.Count() != 1 {
		t.Errorf("routed, recovered samples = %d, %d; want 2, 1", o.routed.Count(), o.recovered.Count())
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, %v", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSmokeSuite runs every workload once at smoke scale, measured and
// traced, and holds the program to BENCHMARK.json: every workload is
// implemented, every end-to-end metric is measured and positive on every
// workload, every output check passes, and every per-layer metric the
// file names is produced by some workload.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("drives loopback UDP and six workloads")
	}
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	size := sizing{nodeDiv: 10, dur: float64(sp.RunSeconds) / nominalSeconds / 10}
	produced := map[string]bool{}
	for _, name := range sp.workloadNames() {
		fn, ok := workloads[name]
		if !ok {
			t.Fatalf("workload %s is in %s but not implemented", name, specFile)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, size: size, traced: traced, outDir: t.TempDir()}
			var tr *tracer
			if traced {
				tr = newTracer(name)
			}
			out, err := fn(cfg, tr)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if len(out.violations) > 0 {
				t.Errorf("%s (traced=%v): output checks failed: %v", name, traced, out.violations)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s (traced=%v): attempted %d, failed %d", name, traced, out.attempted, out.failed)
			}
			if traced {
				for metric := range out.metrics {
					produced[metric] = true
				}
				if err := tr.write(cfg.outDir); err != nil {
					t.Errorf("%s: writing spans: %v", name, err)
				}
				continue
			}
			out.set("peak_rss_mb", 1) // main's job, after the workload returns
			rep, err := newReport(out, sp.EndToEnd, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for metric, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, metric, v.Value)
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is in %s but no workload produced it", m.Name, specFile)
		}
	}
	if len(workloads) != len(sp.Workloads) {
		t.Errorf("%d workloads implemented, %d in %s", len(workloads), len(sp.Workloads), specFile)
	}
}

func TestNewReportDemandsEveryEndToEndMetric(t *testing.T) {
	out := newOutcome()
	out.set("run_wall_s", 1)
	list := []metricSpec{{Name: "run_wall_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}}
	if _, err := newReport(out, list, false); err == nil {
		t.Error("a measured run without setup_s was reported")
	}
	rep, err := newReport(out, list, true)
	if err != nil || rep.Metrics["setup_s"].Value != 0 {
		t.Errorf("traced run: %v, %v; an absent per-layer metric reads 0", rep, err)
	}
	out.set("setup_s", math.NaN())
	if _, err := newReport(out, list, true); err == nil {
		t.Error("a NaN was reported")
	}
}
