// Package experiments regenerates every figure of the paper's
// evaluation (Sec. IV): given a figure identifier it builds the
// parameter sweeps, runs the simulations, and returns the series the
// paper plots. A sweep figure is a grid spec (the parameter edits of
// its series and x values, its measures, its notes) run by one runner;
// cmd/experiments renders the figures as text tables and SVG charts
// into results/.
package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Options tunes a figure generation run.
type Options struct {
	// Seed drives every simulation of the figure.
	Seed int64
	// Duration overrides the per-run simulated time (0 = figure
	// default).
	Duration sim.Time
	// Quick shrinks the sweeps (fewer points, smaller N, shorter runs)
	// for smoke tests and benchmarks.
	Quick bool
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced plot.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// generator produces the figures of one paper figure identifier.
type generator struct {
	title string
	gen   func(Options) ([]Figure, error)
}

// generators maps figure identifiers to their implementations, in
// paper order.
var generators = map[string]generator{
	"3a": {"Event delivery under lossy links (Fig. 3a)", figures(fig3a(0.05), fig3a(0.1))},
	"3b": {"Event delivery under topological reconfigurations (Fig. 3b)", figures(fig3b(200*time.Millisecond), fig3b(30*time.Millisecond))},
	"4a": {"Effect of buffer size on delivery (Fig. 4 top)", figures(fig4a)},
	"4b": {"Effect of gossip interval on delivery (Fig. 4 bottom)", figures(fig4b)},
	"5":  {"Interplay of buffer size and gossip interval, combined pull (Fig. 5)", figures(fig5)},
	"6":  {"Delivery as the system size increases (Fig. 6)", figures(fig6)},
	"7":  {"Receivers per event vs subscriptions per dispatcher (Fig. 7)", figures(fig7)},
	"8":  {"Delivery vs subscriptions per dispatcher under low/high load (Fig. 8)", figures(fig8(5), fig8(50))},
	"9a": {"Gossip overhead vs system size (Fig. 9a)", figures(fig9a)},
	"9b": {"Gossip overhead vs subscriptions per dispatcher (Fig. 9b)", figures(fig9b)},
	"10": {"Gossip overhead vs link error rate (Fig. 10)", figures(fig10(50), fig10(5))},

	// Extensions beyond the paper (see DESIGN.md Sec. 5,
	// extensions.go and runs.go).
	"x-pforward":     {"EXTENSION: sensitivity to the forwarding probability Pforward", figures(xPForward)},
	"x-psource":      {"EXTENSION: sensitivity of combined pull to Psource", figures(xPSource)},
	"x-bufferpolicy": {"EXTENSION: buffer replacement policy ablation (after [13])", figures(xBufferPolicy)},
	"x-adaptive":     {"EXTENSION: adaptive and hybrid gossip vs static algorithms across fault regimes", figures(xAdaptive)},
	"x-latency":      {"EXTENSION: recovery latency percentiles per algorithm", figures(xLatency)},
	"x-variance":     {"PAPER Sec. IV-A: delivery-rate spread across seeds", xVariance},
	"x-churn":        {"EXTENSION: delivery under deterministic node churn", figures(xChurn)},
	"x-burstloss":    {"EXTENSION: bursty (Gilbert–Elliott) vs independent loss", figures(xBurstLoss)},
	"x-puregossip":   {"PAPER Sec. V: hpcast-style pure gossip vs tree + recovery", xPureGossip},
	"x-overlay":      {"EXTENSION: delivery across overlay kinds and repair modes under churn", figures(xOverlay)},
	"x-scale":        {"EXTENSION: delivery, overhead, and throughput up to N=100,000", xScale},
	"x-zipf":         {"EXTENSION: delivery, audience, and overhead under Zipf workload skew", figures(xZipf)},
}

// IDs returns every figure identifier in paper order.
func IDs() []string {
	out := make([]string, 0, len(generators))
	for id := range generators {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Title returns the title of a figure identifier.
func Title(id string) (string, error) {
	g, ok := generators[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return g.title, nil
}

// Generate reproduces the figure(s) for one identifier.
func Generate(id string, opt Options) ([]Figure, error) {
	g, ok := generators[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return g.gen(opt)
}

// base returns the paper-default parameters adjusted by opt.
func base(opt Options, defaultDuration sim.Time) scenario.Params {
	p := scenario.DefaultParams()
	p.Seed = opt.Seed
	p.Duration = defaultDuration
	if opt.Duration > 0 {
		p.Duration = opt.Duration
	}
	if opt.Quick {
		p.N = 40
		p.Duration = 4 * time.Second
		p.MeasureFrom = 500 * time.Millisecond
		p.MeasureTo = p.Duration - time.Second
	}
	return p
}

// grid is one figure's runs as data: every (series, x) pair is one
// simulation cell, and every panel plots one measure of the same cells
// (several paper figures plot two metrics of the same runs).
type grid struct {
	// duration is each run's default simulated time (0 = 10 s), and
	// setup edits the base parameters every cell starts from.
	duration sim.Time
	setup    func(p *scenario.Params)
	// xs are the swept values, applied to a cell by at; a grid without
	// xs runs each series once. With ordinal set the xs are category
	// numbers, plotted at 1, 2, … in the order given.
	xs      []float64
	at      func(p *scenario.Params, x float64)
	ordinal bool
	series  []line
	// quickXs and quickSeries, when set, replace xs and series under
	// Options.Quick.
	quickXs     []float64
	quickSeries []line
	xLabel      string
	panels      []panel
	// curve, when set, draws each series as a curve read from its one
	// run instead of one point per cell.
	curve func(scenario.Result) []Point
	notes []string
	// post, when set, finishes the figures from the runs: computed
	// notes or a derived figure. cells[s][i] is series s at xs[i].
	post func(g grid, cells [][]scenario.Result, figs []Figure) []Figure
}

// line is one series: its name, its edit of a cell's parameters (run
// after at, so it may read what at set), and whether it ignores the
// swept parameter. A flat series runs once, at xs[0], and is drawn
// level across the axis.
type line struct {
	name string
	edit func(p *scenario.Params)
	flat bool
}

// panel is one plotted figure: one measure of every cell.
type panel struct {
	id, title, yLabel string
	y                 func(scenario.Result) float64
}

// figures returns the generator of one or more grids. Every cell of
// every grid goes into one scenario.RunAll, and the figures come back
// in spec order.
func figures(specs ...grid) func(Options) ([]Figure, error) {
	return func(opt Options) ([]Figure, error) {
		gs := slices.Clone(specs)
		var params []scenario.Params
		first := make([][]int, len(gs)) // grid → series → its first cell in params
		for gi := range gs {
			g := &gs[gi]
			if opt.Quick && g.quickXs != nil {
				g.xs = g.quickXs
			}
			if opt.Quick && g.quickSeries != nil {
				g.series = g.quickSeries
			}
			if g.xs == nil {
				g.xs = []float64{0}
			}
			p0 := base(opt, cmp.Or(g.duration, 10*time.Second))
			if g.setup != nil {
				g.setup(&p0)
			}
			for _, l := range g.series {
				first[gi] = append(first[gi], len(params))
				for _, x := range g.xs {
					p := p0
					if g.at != nil {
						g.at(&p, x)
					}
					if l.edit != nil {
						l.edit(&p)
					}
					params = append(params, p)
					if l.flat {
						break
					}
				}
			}
		}
		results, err := scenario.RunAll(params)
		if err != nil {
			return nil, err
		}
		var out []Figure
		for gi, g := range gs {
			cells := make([][]scenario.Result, len(g.series))
			for si, l := range g.series {
				for xi := range g.xs {
					i := first[gi][si]
					if !l.flat {
						i += xi
					}
					cells[si] = append(cells[si], results[i])
				}
			}
			out = append(out, g.assemble(cells)...)
		}
		return out, nil
	}
}

// assemble draws every panel of the grid from its cells.
func (g grid) assemble(cells [][]scenario.Result) []Figure {
	var figs []Figure
	for _, pn := range g.panels {
		f := Figure{ID: pn.id, Title: pn.title, XLabel: g.xLabel, YLabel: pn.yLabel, Notes: slices.Clone(g.notes)}
		for si, l := range g.series {
			s := Series{Name: l.name}
			for xi, r := range cells[si] {
				if g.curve != nil {
					s.Points = append(s.Points, g.curve(r)...)
				} else {
					s.Points = append(s.Points, Point{X: g.plotX(xi), Y: pn.y(r)})
				}
			}
			f.Series = append(f.Series, s)
		}
		figs = append(figs, f)
	}
	if g.post != nil {
		figs = g.post(g, cells, figs)
	}
	return figs
}

// plotX is where the i-th swept value is drawn.
func (g grid) plotX(i int) float64 {
	if g.ordinal {
		return float64(i + 1)
	}
	return g.xs[i]
}

// noteParams is a post hook that adds one note, written from the
// parameters of the first run, to every figure.
func noteParams(note func(p scenario.Params) string) func(grid, [][]scenario.Result, []Figure) []Figure {
	return func(_ grid, cells [][]scenario.Result, figs []Figure) []Figure {
		for i := range figs {
			figs[i].Notes = append(figs[i].Notes, note(cells[0][0].Params))
		}
		return figs
	}
}

// algoLines is one series per algorithm, named after it.
func algoLines(algos ...core.Algorithm) []line {
	ls := make([]line, len(algos))
	for i, a := range algos {
		ls[i] = line{name: a.String(), edit: func(p *scenario.Params) { p.Algorithm = a }}
	}
	return ls
}

// The series of the delivery plots: every algorithm in the paper's
// legend order, and the Quick subset.
var (
	paperLines = algoLines(core.Algorithms()...)
	quickLines = algoLines(core.NoRecovery, core.Push, core.CombinedPull)
)

// flatBaseline returns ls with the no-recovery series flat: a run
// without recovery ignores the swept gossip parameter.
func flatBaseline(ls []line) []line {
	ls = slices.Clone(ls)
	for i := range ls {
		ls[i].flat = ls[i].name == core.NoRecovery.String()
	}
	return ls
}

// The measures the figures plot.
func delivery(r scenario.Result) float64       { return round2(r.DeliveryRate) }
func receivers(r scenario.Result) float64      { return round2(r.ReceiversPerEvent) }
func gossip(r scenario.Result) float64         { return round2(r.GossipPerDispatcher) }
func gossipWhole(r scenario.Result) float64    { return math.Round(r.GossipPerDispatcher) }
func gossipPerEvent(r scenario.Result) float64 { return round2(r.GossipEventRatio) }

// setLoss sets the link error rate ε on both channels.
func setLoss(p *scenario.Params, e float64) {
	p.Network.LossRate, p.Network.OOBLossRate = e, e
}

// seconds converts virtual time to float seconds for plotting.
func seconds(t sim.Time) float64 { return float64(t) / float64(time.Second) }

// round2 keeps printed values stable.
func round2(v float64) float64 { return math.Round(v*10000) / 10000 }
