// Command duabench is the repository's benchmark of DUA, the paper's
// Algorithm 1. It runs one named workload for a fixed time, checks every
// result, and prints its metrics; see README.md for the metrics, the
// workloads and how to run it.
//
//	go run . --workload dense-inproc --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones from a traced run, and the spans are written to
// .bench_build/duabench/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// outDir holds the benchmark's scratch files, relative to the directory
// it runs from.
const outDir = ".bench_build/duabench"

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"alloc_mb", "MB"},
	{"serving_cost", "cost"},
}

var perLayer = []metricDef{
	{"core.solve.calls", "count"},
	{"core.solve.total_s", "s"},
	{"core.solve.p50_ms", "ms"},
	{"core.solve.p90_ms", "ms"},
	{"core.solve.dual_iters", "count"},
	{"core.memo.skip_ratio", "ratio"},
	{"core.memo.solves", "count"},
	{"core.memo.skipped", "count"},
	{"model.tracker.yminus_s", "s"},
	{"model.tracker.install_s", "s"},
	{"model.cost.eval_s", "s"},
	{"core.lppm.calls", "count"},
	{"core.lppm.perturb_s", "s"},
	{"transport.msgs", "count"},
	{"transport.bytes", "B"},
	{"transport.send_s", "s"},
	{"transport.codec_s", "s"},
	{"sim.bs.recv_wait_s", "s"},
	{"sim.phase_rtt_p50_ms", "ms"},
	{"sim.phase_rtt_p90_ms", "ms"},
	{"sim.sbs.busy_s", "s"},
	{"model.ckpt.saves", "count"},
	{"model.ckpt.bytes", "B"},
	{"model.ckpt.save_p50_ms", "ms"},
	{"model.ckpt.save_p90_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.mallocs", "count"},
	{"wire_mb", "MB"},
	{"epsilon_spent", "epsilon"},
	{"trace.overhead", "ratio"},
	{"host.ref_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "duabench:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("duabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	cases, err := w.cases(*seed)
	if err != nil {
		return err
	}
	workDir := filepath.Join(outDir, "work-"+strconv.Itoa(os.Getpid()))
	defer removeAll(workDir)
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	r := newRunner(w, cases, workDir, tr)
	r.measure(time.Duration(*seconds) * time.Second)

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if tr != nil {
		defs = perLayer
		if err := tr.writeSpans(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.metricValue(d.name), Unit: d.unit}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no run was attempted")
	}

	report(os.Stdout, w, *seed, *trace, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricValue computes the reported figure of one metric.
func (r *runner) metricValue(name string) float64 {
	switch name {
	case "setup_s":
		return median(r.setups)
	case "trace.overhead":
		if base := r.value("solve_raw_s"); base > 0 {
			return r.value("traced.solve_s") / base
		}
		return 0
	default:
		return r.value(name)
	}
}

// report prints a readable table, then one JSON line describing the host
// and the inputs: CPU model, nproc, GOMAXPROCS, Go version and each
// instance's fingerprint.
func report(out io.Writer, w workload, seed int64, trace int, r *runner, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-14s %-24s %14.6g %s\n", w.name, n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}

	type instance struct {
		Seed        int64   `json:"scenario_seed"`
		Fingerprint string  `json:"fingerprint"`
		Sweeps      int     `json:"sweeps"`
		SolveS      float64 `json:"solve_s"`
		CPUS        float64 `json:"cpu_s"`
	}
	info := struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Trace     int                `json:"trace"`
		Host      map[string]any     `json:"host"`
		Instances []instance         `json:"instances"`
		Runs      int                `json:"runs_per_case"`
		Extra     map[string]float64 `json:"extra"`
	}{
		Workload: w.name, Seed: seed, Trace: trace,
		Host: map[string]any{
			"cpu_model":  cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
		},
		Extra: map[string]float64{},
	}
	for _, s := range r.vals["solve_s"] {
		info.Runs = max(info.Runs, len(s))
	}
	for k, c := range r.cases {
		in := instance{Seed: c.seed, Fingerprint: fmt.Sprintf("%016x", c.inst.Fingerprint())}
		if ref := r.ref[k]; ref != nil {
			in.Sweeps = ref.Sweeps
			in.SolveS = median(r.vals["solve_raw_s"][k])
			in.CPUS = median(r.vals["proc.cpu_s"][k])
		}
		info.Instances = append(info.Instances, in)
	}
	info.Extra["setup_raw_s"] = median(r.setupsRaw)
	info.Extra["solve_raw_s"] = r.value("solve_raw_s")
	info.Extra["host.ref_ms"] = r.value("host.ref_ms")
	if w.private {
		info.Extra["wire_mb"] = r.value("wire_mb")
		info.Extra["epsilon_spent"] = r.value("epsilon_spent")
	}
	if trace == 1 {
		if base := r.value("solve_raw_s"); base > 0 {
			info.Extra["core.solve.share"] = r.value("core.solve.total_s") / base
		}
	}
	line, err := json.Marshal(map[string]any{"duabench": info})
	if err == nil {
		fmt.Fprintln(out, string(line))
	}
}
