// Command benchmark is the repository's benchmark: six workloads that
// drive the system end to end through internal/scenario (simulation) and
// internal/live (loopback UDP), print the metrics BENCHMARK.json names,
// and check the outputs. See README.md in this directory.
//
// The driver's form runs one workload and ends with one JSON line:
//
//	bash benchmark/run.sh --workload sim-paper --seed 1 --seconds 8 --trace 0
//
// Without --workload it runs the whole suite, each workload in a child
// process, measured and traced, and writes benchmark/out/result-<seed>.json;
// -repeat K reports run-to-run spread against the bounds; -smoke shrinks
// everything tenfold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

// specFile is read from the working directory: the driver and run.sh
// both start the benchmark from the checkout's root.
const specFile = "BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the one list of workloads and metrics. The
// program measures everything it can and prints what the file names, so
// the two cannot drift apart unnoticed (a named end-to-end metric that a
// workload did not measure is an error).
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metricsFor is the list a run in the given mode reports.
func (s *spec) metricsFor(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object that ends a single-workload run. The first
// four keys are the driver's contract; -full adds the rest for the suite
// parent.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Violations []string          `json:"violations,omitempty"`
	Samples    map[string]uint64 `json:"samples,omitempty"`
	BatchIO    *bool             `json:"batch_io,omitempty"`
}

// newReport selects from out the metrics the mode names. An end-to-end
// metric must have been measured; a per-layer metric the workload does
// not exercise reads 0.
func newReport(out *outcome, list []metricSpec, traced bool) (*report, error) {
	r := &report{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range list {
		v, ok := out.metrics[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = value{v, m.Unit}
	}
	return r, nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	varySeed bool
	full     bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's JSON line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: topology, subscriptions, fault plan, publish schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "nominal length of the measured phase (default: run_seconds of "+specFile+")")
	flag.IntVar(&o.trace, "trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics and span files")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload tenfold in nodes and duration")
	flag.IntVar(&o.repeat, "repeat", 0, "suite: run the measured suite this many times and judge each metric's spread against its bound")
	flag.BoolVar(&o.varySeed, "vary-seed", false, "with -repeat: use seed, seed+1, ... as the driver does, instead of one seed")
	flag.BoolVar(&o.full, "full", false, "single workload: add violations, sample counts and batch-I/O state to the JSON line")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files and result-<seed>.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", o.seconds)
	}
	if o.workload == "" {
		if o.repeat > 0 {
			return runRepeat(sp, o)
		}
		return runSuite(sp, o)
	}
	if !slices.Contains(sp.workloadNames(), o.workload) {
		return fmt.Errorf("-workload %q: %s names %v", o.workload, specFile, sp.workloadNames())
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("workload %q is named in %s but not implemented", o.workload, specFile)
	}
	cfg := runConfig{
		workload: o.workload,
		seed:     o.seed,
		size:     sizing{nodeDiv: 1, dur: o.seconds / nominalSeconds},
		traced:   o.trace == 1,
		outDir:   o.outDir,
	}
	if o.smoke {
		cfg.size = sizing{nodeDiv: 10, dur: cfg.size.dur / 10}
	}
	rep, err := runWorkload(sp, fn, cfg)
	if err != nil {
		return err
	}
	printMetrics(o.workload, rep, sp.metricsFor(cfg.traced))
	if !o.full {
		rep.Violations, rep.Samples, rep.BatchIO = nil, nil, nil
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics prints the listed metrics as "workload name value unit"
// lines, then any failed output check.
func printMetrics(workload string, rep *report, list []metricSpec) {
	for _, m := range list {
		fmt.Printf("%s %s %v %s\n", workload, m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	for _, v := range rep.Violations {
		fmt.Printf("%s VIOLATION %s\n", workload, v)
	}
}

// runWorkload executes one workload in this process and turns its
// outcome into the report of the mode that ran. The traced run also
// writes its spans.
func runWorkload(sp *spec, fn workloadFunc, cfg runConfig) (*report, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.workload)
	}
	out, err := fn(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.outDir); err != nil {
		return nil, err
	}
	if _, ok := out.metrics["peak_rss_mb"]; !ok {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", rss)
	}
	rep, err := newReport(out, sp.metricsFor(cfg.traced), cfg.traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.Violations, rep.Samples, rep.BatchIO = out.violations, out.samples, out.batchIO
	return rep, nil
}
