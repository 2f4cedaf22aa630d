// Command experiments regenerates the figures of the paper's
// evaluation (Sec. IV) and prints them as text tables.
//
// Usage:
//
//	experiments -fig 3a                 # one figure to stdout
//	experiments -fig all -out results/  # every figure, one file each
//	experiments -fig 2                  # print the Fig. 2 parameter table
//	experiments -list                   # list figure identifiers
//
// Flags:
//
//	-fig id        figure to regenerate (see -list), or "all"
//	-out dir       write results to dir/fig<id>.txt instead of stdout
//	-seed n        simulation seed (default 1)
//	-duration d    override per-run simulated time (e.g. 25s)
//	-quick         shrink sweeps for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", `figure to regenerate ("all", "2", or an id from -list)`)
		out      = fs.String("out", "", "directory to write per-figure result files")
		seed     = fs.Int64("seed", 1, "simulation seed")
		duration = fs.Duration("duration", 0, "override per-run simulated time")
		quick    = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		list     = fs.Bool("list", false, "list figure identifiers and exit")
		svg      = fs.Bool("svg", false, "with -out: also write an SVG chart per sub-figure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			title, err := experiments.Title(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-4s %s\n", id, title)
		}
		return nil
	}
	if *fig == "" {
		return fmt.Errorf("missing -fig (use -list to see identifiers)")
	}

	opt := experiments.Options{Seed: *seed, Duration: *duration, Quick: *quick}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if id == "2" {
			if err := writeResult(id, *out, stdout, printFig2); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		figs, err := experiments.Generate(id, opt)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		err = writeResult(id, *out, stdout, func(w io.Writer) error {
			return experiments.RenderAll(figs, w)
		})
		if err != nil {
			return err
		}
		if *svg && *out != "" {
			for _, f := range figs {
				path := filepath.Join(*out, "fig"+f.ID+".svg")
				sf, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := experiments.RenderSVG(f, sf); err != nil {
					sf.Close()
					return err
				}
				if err := sf.Close(); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(os.Stderr, "fig %-3s done in %v\n", id, time.Since(start).Round(time.Second))
	}
	if *fig == "all" {
		if err := writeResult("2", *out, stdout, printFig2); err != nil {
			return err
		}
	}
	return nil
}

// writeResult sends one figure's output to dir/fig<id>.txt or stdout.
func writeResult(id, dir string, stdout io.Writer, emit func(io.Writer) error) error {
	if dir == "" {
		return emit(stdout)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "fig"+id+".txt")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFig2 prints the paper's Fig. 2 parameter table with our
// defaults, read from the default parameters of the scenario, the
// gossip engine and the network.
func printFig2(w io.Writer) error {
	p := scenario.DefaultParams()
	g := core.DefaultConfig(core.CombinedPull)
	nw := network.DefaultConfig()
	rho := "∞"
	if p.ReconfigInterval > 0 {
		rho = fmt.Sprintf("%g s", p.ReconfigInterval.Seconds())
	}
	rows := [][2]string{
		{"number of dispatchers", fmt.Sprintf("N = %d", p.N)},
		{"maximum number of patterns per subscriber", fmt.Sprintf("πmax = %d", p.PatternsPerNode)},
		{"total number of patterns", fmt.Sprintf("Π = %d", p.NumPatterns)},
		{"patterns matched per event (max)", fmt.Sprint(p.MaxMatch)},
		{"publish rate", fmt.Sprintf("%g publish/s per dispatcher", p.PublishRate)},
		{"link error rate", fmt.Sprintf("ε = %g", nw.LossRate)},
		{"interval between topological reconfigurations", "ρ = " + rho},
		{"buffer size", fmt.Sprintf("β = %d", g.BufferSize)},
		{"gossip interval", fmt.Sprintf("T = %g s", g.GossipInterval.Seconds())},
		{"overlay node degree (max)", fmt.Sprint(p.MaxDegree)},
		{"link model", fmt.Sprintf("%g Mbit/s, %d µs propagation", nw.BandwidthBPS/1e6, nw.PropDelay.Microseconds())},
		{"gossip forwarding probability (assumed)", fmt.Sprintf("Pforward = %g", g.PForward)},
		{"combined-pull source probability (assumed)", fmt.Sprintf("Psource = %g", g.PSource)},
		{"message size on the wire (assumed)", fmt.Sprintf("%d bytes, events = gossip", nw.MessageBytes)},
		{"simulated time", fmt.Sprintf("%g s", p.Duration.Seconds())},
	}
	fmt.Fprintln(w, "# 2 — Simulation parameters and their default values (paper Fig. 2)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %s\n", r[0], r[1])
	}
	return nil
}
