package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload in a child process of this binary, so that
// peak RSS and garbage-collector state are the workload's own, and
// returns the report on its last output line.
func runChild(cfg options, workload string, seed int64, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-full", "-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s: parsing the child's result line: %w", workload, err)
	}
	return &rep, nil
}

// environment records where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var dirty string
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		env.Commit += dirty
	}
	return env
}

// suiteResult is benchmark/out/result-<seed>.json.
type suiteResult struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Smoke     bool               `json:"smoke"`
	Env       environment        `json:"env"`
	Workloads map[string]*report `json:"workloads"`
}

// runSuite runs every workload twice, measured then traced, each in its
// own child process; prints every metric by name with its unit; and
// writes the machine-readable result. It errs if any output check failed.
func runSuite(sp *spec, cfg options) error {
	res := suiteResult{Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke, Env: readEnvironment(), Workloads: map[string]*report{}}
	var incorrect []string
	for _, name := range sp.workloadNames() {
		measured, err := runChild(cfg, name, cfg.seed, false)
		if err != nil {
			return err
		}
		traced, err := runChild(cfg, name, cfg.seed, true)
		if err != nil {
			return err
		}
		printMetrics(name, measured, sp.EndToEnd)
		printMetrics(name, traced, sp.PerLayer)
		fmt.Printf("%s operations attempted=%d failed=%d\n", name, measured.Attempted, measured.Failed)
		// One record per workload: end-to-end numbers and operation
		// counts from the measured run, per-layer numbers from the
		// traced one.
		for k, v := range traced.Metrics {
			measured.Metrics[k] = v
		}
		for k, v := range traced.Samples {
			if measured.Samples == nil {
				measured.Samples = map[string]uint64{}
			}
			measured.Samples[k] = v
		}
		measured.Violations = append(measured.Violations, traced.Violations...)
		measured.Correct = measured.Correct && traced.Correct
		if !measured.Correct {
			incorrect = append(incorrect, name)
		}
		res.Workloads[name] = measured
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("encoding the suite result: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("writing the suite result: %w", err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%d.json", cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing the suite result: %w", err)
	}
	fmt.Println("wrote", path)
	if len(incorrect) > 0 {
		return fmt.Errorf("output checks failed on %s", strings.Join(incorrect, ", "))
	}
	return nil
}

// quartiles returns the cut points Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method), which is
// what the driver judges spread by. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat is the calibration tool: the measured suite cfg.repeat
// times, then per workload × end-to-end metric the median, quartiles,
// max−min and interquartile spread as shares of the median, and whether
// the interquartile spread — the driver's measure — is inside the
// metric's bound. setup_s is printed but not judged, as in the driver.
func runRepeat(sp *spec, cfg options) error {
	if cfg.repeat < 2 {
		return fmt.Errorf("-repeat %d: a spread needs at least 2 runs", cfg.repeat)
	}
	values := map[string]map[string][]float64{}
	for k := 0; k < cfg.repeat; k++ {
		seed := cfg.seed
		if cfg.varySeed {
			seed += int64(k)
		}
		for _, name := range sp.workloadNames() {
			rep, err := runChild(cfg, name, seed, false)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s (seed %d): output checks failed: %s", name, seed, strings.Join(rep.Violations, "; "))
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, m := range sp.EndToEnd {
				values[name][m.Name] = append(values[name][m.Name], rep.Metrics[m.Name].Value)
			}
		}
		fmt.Fprintf(os.Stderr, "repeat %d/%d done (seed %d)\n", k+1, cfg.repeat, seed)
	}
	fmt.Printf("| workload | metric | median | q1 | q3 | max−min | IQR | bound | inside |\n|---|---|---|---|---|---|---|---|---|\n")
	var outside []string
	for _, name := range sp.workloadNames() {
		for _, m := range sp.EndToEnd {
			vs := values[name][m.Name]
			q1, med, q3 := quartiles(vs)
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			iqr, full := (q3-q1)/med, (s[len(s)-1]-s[0])/med
			verdict := "yes"
			switch {
			case m.Name == "setup_s":
				verdict = "not judged"
			case iqr > m.Bound:
				verdict = "NO"
				outside = append(outside, name+" "+m.Name)
			}
			fmt.Printf("| %s | %s | %.5g %s | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				name, m.Name, med, m.Unit, q1, q3, 100*full, 100*iqr, 100*m.Bound, verdict)
		}
	}
	if len(outside) > 0 {
		return fmt.Errorf("spread outside the bound: %s", strings.Join(outside, ", "))
	}
	return nil
}
