// Command benchfig regenerates the paper's evaluation figures (§V) as text
// tables, optionally writing CSV files for plotting.
//
// Usage:
//
//	benchfig -fig 3                 # one figure (2..6)
//	benchfig -all                   # figures 2..6
//	benchfig -summary               # §V headline percentages
//	benchfig -extra                 # E7 optimality gap + E8 convergence
//	benchfig -all -csv out/         # also write out/fig<N>.csv
//	benchfig -seeds 1,2,3,4,5       # average over more seeds
//	benchfig -epsilon 0.5 -delta .3 # non-Fig.3 privacy parameters
//	benchfig -bench-json BENCH.json # DUA hot-path microbenchmarks as JSON
//	benchfig -bench-parallel BENCH_parallel.json   # parallel-engine scaling report
//	benchfig -bench-parallel new.json -bench-baseline BENCH_parallel.json  # CI regression smoke
//	benchfig -summary -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"edgecache/internal/experiments"
	"edgecache/internal/metrics"
	"edgecache/internal/plot"
	"edgecache/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	var (
		fig       = fs.Int("fig", 0, "figure to regenerate (2..6)")
		all       = fs.Bool("all", false, "regenerate figures 2..6")
		summary   = fs.Bool("summary", false, "print the §V headline summary")
		extra     = fs.Bool("extra", false, "run extension experiments E7 and E8")
		ablations = fs.Bool("ablations", false, "run ablation experiments E9-E16")
		csvDir    = fs.String("csv", "", "directory to write CSV copies into")
		seeds     = fs.String("seeds", "1,2,3", "comma-separated scenario seeds")
		epsilon   = fs.Float64("epsilon", 0.1, "privacy budget ε for figures 4-6")
		delta     = fs.Float64("delta", 0.5, "LPPM Laplace component factor δ")
		trials    = fs.Int("gap-trials", 5, "trials for the E7 optimality-gap experiment")
		plotFigs  = fs.Bool("plot", false, "render figures 3-6 as ASCII charts too")
		benchJSON = fs.String("bench-json", "", "run the DUA hot-path microbenchmarks and write JSON to this path (\"-\" for stdout)")
		benchPar  = fs.String("bench-parallel", "", "run the parallel sweep-engine scaling benchmark and write JSON to this path (\"-\" for stdout)")
		benchBase = fs.String("bench-baseline", "", "with -bench-parallel: fail on >20% speedup/alloc regression vs this committed baseline (e.g. BENCH_parallel.json)")
		benchWrk  = fs.String("bench-workers", "1,2,4,8", "worker counts measured by -bench-parallel")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (post-GC live set) to this file at exit")
		traceOut  = fs.String("trace", "", "write a runtime execution trace of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := prof.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		return err
	}
	defer sess.Stop()
	runProfiled := func(fn func() error) error {
		if err := fn(); err != nil {
			return err
		}
		return sess.Stop()
	}
	if *benchJSON != "" {
		return runProfiled(func() error { return runBenchJSON(*benchJSON) })
	}
	if *benchPar != "" {
		return runProfiled(func() error { return runParallelBench(*benchPar, *benchBase, *benchWrk) })
	}
	if *benchBase != "" {
		return fmt.Errorf("-bench-baseline requires -bench-parallel")
	}
	if !*all && *fig == 0 && !*summary && !*extra && !*ablations {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig N, -all, -summary, -extra or -ablations")
	}

	h := experiments.DefaultHarness()
	h.Epsilon = *epsilon
	h.Delta = *delta
	parsedSeeds, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}
	h.Seeds = parsedSeeds

	emit := func(name string, tb *metrics.Table) error {
		if err := tb.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		return nil
	}

	figures := map[int]func() (*metrics.Table, error){
		2: h.Fig2,
		3: func() (*metrics.Table, error) { return h.Fig3(nil) },
		4: func() (*metrics.Table, error) { return h.Fig4(nil) },
		5: func() (*metrics.Table, error) { return h.Fig5(nil) },
		6: func() (*metrics.Table, error) { return h.Fig6(nil) },
	}

	var wanted []int
	switch {
	case *all:
		wanted = []int{2, 3, 4, 5, 6}
	case *fig != 0:
		if _, ok := figures[*fig]; !ok {
			return fmt.Errorf("unknown figure %d (valid: 2..6)", *fig)
		}
		wanted = []int{*fig}
	}
	for _, n := range wanted {
		tb, err := figures[n]()
		if err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
		if err := emit(fmt.Sprintf("fig%d", n), tb); err != nil {
			return err
		}
		if *plotFigs && n >= 3 {
			chart, err := renderFigureChart(tb)
			if err != nil {
				return fmt.Errorf("figure %d chart: %w", n, err)
			}
			fmt.Println(chart)
		}
	}

	if *summary {
		tb, err := h.Summary()
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		if err := emit("summary", tb); err != nil {
			return err
		}
	}
	if *extra {
		tb, err := h.OptimalityGap(*trials)
		if err != nil {
			return fmt.Errorf("E7: %w", err)
		}
		if err := emit("e7_optimality_gap", tb); err != nil {
			return err
		}
		tb, err = h.Convergence()
		if err != nil {
			return fmt.Errorf("E8: %w", err)
		}
		if err := emit("e8_convergence", tb); err != nil {
			return err
		}
	}
	if *ablations {
		runs := []struct {
			name string
			fn   func() (*metrics.Table, error)
		}{
			{"e9_restarts", func() (*metrics.Table, error) { return h.RestartAblation(4) }},
			{"e10_jacobi", h.JacobiAblation},
			{"e11_noise_families", func() (*metrics.Table, error) { return h.NoiseFamilyAblation(nil) }},
			{"e12_multibs", h.MultiBSAblation},
			{"e13_fluid_validation", func() (*metrics.Table, error) { return h.FluidValidation(0) }},
			{"e14_churn", func() (*metrics.Table, error) { return h.ChurnStudy(6, 5) }},
			{"e15_reconstruction", func() (*metrics.Table, error) { return h.ReconstructionAttack(nil) }},
			{"e16_cache_policies", h.CachePolicyAblation},
		}
		for _, r := range runs {
			tb, err := r.fn()
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			if err := emit(r.name, tb); err != nil {
				return err
			}
		}
	}
	return sess.Stop()
}

// renderFigureChart turns a figure table (numeric sweep column followed by
// LPPM/Optimum/LRFU cost columns) into an ASCII line chart.
func renderFigureChart(tb *metrics.Table) (string, error) {
	cols := tb.Columns()
	if len(cols) < 4 {
		return "", fmt.Errorf("table %q has %d columns, want ≥ 4", tb.Title, len(cols))
	}
	parse := func(row, col int) (float64, error) {
		return strconv.ParseFloat(tb.Cell(row, col), 64)
	}
	series := make([]plot.Series, 3)
	for i := range series {
		series[i].Name = cols[i+1]
	}
	for row := 0; row < tb.NumRows(); row++ {
		x, err := parse(row, 0)
		if err != nil {
			return "", err
		}
		for i := range series {
			y, err := parse(row, i+1)
			if err != nil {
				return "", err
			}
			series[i].X = append(series[i].X, x)
			series[i].Y = append(series[i].Y, y)
		}
	}
	// Figure 3's ε axis spans four decades: chart it in log10.
	if cols[0] == "epsilon" {
		for i := range series {
			for j := range series[i].X {
				series[i].X[j] = math.Log10(series[i].X[j])
			}
		}
	}
	return plot.Lines(plot.Config{Title: tb.Title + " (chart)", YLabel: "total serving cost"}, series...)
}

func parseSeeds(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	var seeds []int64
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid seed %q: %w", p, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return seeds, nil
}
