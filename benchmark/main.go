// Command benchmark is the repository's benchmark. It drives one workload
// open-loop through the public runtime (NewCluster, Launch, PrimeCredits,
// Offer), checks the outputs, and prints every end-to-end metric by name
// with its unit; with -trace 1 it prints the per-layer metrics instead and
// writes the run's spans. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source first:
//
//	bash benchmark/run.sh --workload scripted --seed 1 --seconds 30 --trace 0
//
// NOTES.md explains the workloads, the metrics and the layers they map to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/experiments"
	"videopipe/internal/frame"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spansDir is where the traced run writes its spans, relative to the
// working directory.
const spansDir = ".bench_build/spans"

// options are one invocation's flags.
type options struct {
	workload workload
	seed     int64
	run      time.Duration
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scripted, pose or remote")
	seed := fs.Int64("seed", 1, "seed of every arrival schedule")
	seconds := fs.Int("seconds", 30, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o := options{workload: w, seed: *seed, run: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var res result
	if o.trace {
		res, err = traced(o, stdout)
	} else {
		res, err = untraced(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (c *check) result(metrics map[string]value, stdout io.Writer) (result, error) {
	if c.attempted == 0 {
		return result{}, errors.New("no frames were offered")
	}
	for _, p := range c.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	fmt.Fprintf(stdout, "check: %d attempted, %d failed; %d activity windows checked against the scene\n", c.attempted, c.failed, c.windows)
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// prepared is the per-run state shared by every phase: the scenario, its
// planner and the rendered templates.
type prepared struct {
	sc        experiments.FloodScenario
	planner   core.Planner
	templates [][]*frame.Frame
	seq       uint64
}

func prepare(w workload) (*prepared, error) {
	sc, planner, err := w.scenario()
	if err != nil {
		return nil, err
	}
	templates, err := renderTemplates(sc)
	if err != nil {
		return nil, fmt.Errorf("render templates: %w", err)
	}
	return &prepared{sc: sc, planner: planner, templates: templates}, nil
}

// measure deploys, runs one phase on the fresh cluster, checks it and
// tears the cluster down. The returned deployment's meters stay readable.
func (p *prepared) measure(o options, chk *check, name string, rate float64, horizon time.Duration, phaseIdx int, tr *tracer) (phase, *deployment, error) {
	_, arrivals, err := schedule(o.workload.process, rate, horizon, o.seed, phaseIdx)
	if err != nil {
		return phase{}, nil, err
	}
	d, err := deploy(o.workload, p.sc, p.planner, tr)
	if err != nil {
		return phase{}, nil, err
	}
	defer d.close()
	ph := runPhase(name, d, p.templates, arrivals, horizon, tr, &p.seq)
	chk.phase(ph)
	chk.services(name, d.rec)
	return ph, d, nil
}

// The untraced run sets the workload up and tears it down again at least
// setupRuns times and for at least setupBudget in all, and reports the
// median set-up. The set-ups are split evenly ahead of its phases, so they
// sample the host over the whole run as the other metrics do.
const (
	setupRuns   = 21
	setupBudget = 1500 * time.Millisecond
)

// setUp sets the workload up and tears it down again, at least n times and
// for at least budget, and returns the set-up times. Each set-up starts
// from a collected heap, so a collection owed by the one before does not
// land in it.
func (p *prepared) setUp(w workload, n int, budget time.Duration) ([]time.Duration, error) {
	var setups []time.Duration
	for start := time.Now(); len(setups) < n || time.Since(start) < budget; {
		runtime.GC()
		d, err := deploy(w, p.sc, p.planner, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup)
		d.close()
	}
	return setups, nil
}

// untraced measures the end-to-end metrics: the steady phase, repeated
// w.repeats times on fresh clusters, for latency, ok ratio, CPU and
// allocation; the overload phase for capacity.
func untraced(o options, stdout io.Writer) (result, error) {
	w := o.workload
	p, err := prepare(w)
	if err != nil {
		return result{}, err
	}
	defer releaseTemplates(p.templates)
	chk := &check{}
	var setups []time.Duration
	nPhases := w.repeats + 1
	setUp := func() error {
		s, err := p.setUp(w, (setupRuns+nPhases-1)/nPhases, setupBudget/time.Duration(nPhases))
		setups = append(setups, s...)
		return err
	}
	steadyTotal := time.Duration(float64(o.run) * steadyShare)
	steadyH := steadyTotal / time.Duration(w.repeats)
	var steady []phase
	var p50s, p95s, cpus []time.Duration
	var ok, offered, samples int
	var alloc, completed uint64
	for r := 0; r < w.repeats; r++ {
		if err := setUp(); err != nil {
			return result{}, err
		}
		ph, _, err := p.measure(o, chk, fmt.Sprintf("steady %d", r+1), w.steadyRate, steadyH, r, nil)
		if err != nil {
			return result{}, err
		}
		if ph.completed == 0 || len(ph.e2e) == 0 {
			return result{}, errors.New("steady phase completed no frames")
		}
		steady = append(steady, ph)
		p50s = append(p50s, quantile(ph.e2e, 0.50))
		p95s = append(p95s, quantile(ph.e2e, 0.95))
		cpus = append(cpus, ph.cpu/time.Duration(ph.completed))
		ok += within(ph.e2e, w.limit)
		offered += ph.offered
		samples += len(ph.e2e)
		alloc += ph.alloc
		completed += ph.completed
	}
	if err := setUp(); err != nil {
		return result{}, err
	}
	overload, _, err := p.measure(o, chk, "overload", w.overloadRate, o.run-steadyTotal, w.repeats, nil)
	if err != nil {
		return result{}, err
	}

	m := map[string]value{
		"setup_s":            {medianOf(setups).Seconds(), "s"},
		"latency_p50_ms":     {ms(medianOf(p50s)), "ms"},
		"latency_p95_ms":     {ms(medianOf(p95s)), "ms"},
		"ok_ratio":           {float64(ok) / float64(offered), "ratio"},
		"capacity_eps":       {float64(overload.completed) / overload.horizon.Seconds(), "eps"},
		"cpu_ms_per_frame":   {ms(medianOf(cpus)), "ms"},
		"alloc_kb_per_frame": {float64(alloc) / 1024 / float64(completed), "KiB"},
		"peak_rss_mb":        {float64(peakRSS()) / (1 << 20), "MiB"},
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d pipelines; steady %.3g eps/pipeline, %d x %v; overload %.3g eps/pipeline for %v\n",
		w.name, o.seed, pipelines, w.steadyRate, w.repeats, steadyH, w.overloadRate, overload.horizon)
	for _, ph := range append(steady, overload) {
		fmt.Fprintf(stdout, "  %s: offered %d, shed %d, completed %d, abandoned %d, injector worst lateness %v",
			ph.name, ph.offered, ph.shed, ph.completed, ph.abandoned, ph.late.Round(time.Microsecond))
		if len(ph.e2e) > 0 {
			fmt.Fprintf(stdout, ", latency p50 %.2f ms, p95 %.2f ms over %d samples",
				ms(quantile(ph.e2e, 0.50)), ms(quantile(ph.e2e, 0.95)), len(ph.e2e))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "  setup runs %d; steady latency samples %d (limit %v)\n", len(setups), samples, w.limit)
	printMetrics(stdout, m)
	return chk.result(m, stdout)
}

// traced runs the steady phase twice on fresh clusters with the same
// schedule, untraced and then traced, and derives the per-layer metrics
// from the traced one. The difference between the two is trace_overhead.
func traced(o options, stdout io.Writer) (result, error) {
	w := o.workload
	p, err := prepare(w)
	if err != nil {
		return result{}, err
	}
	defer releaseTemplates(p.templates)
	chk := &check{}
	horizon := o.run / 2
	plain, d0, err := p.measure(o, chk, "untraced", w.steadyRate, horizon, 0, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	ph, d, err := p.measure(o, chk, "traced", w.steadyRate, horizon, 0, tr)
	if err != nil {
		return result{}, err
	}
	launches := append(d0.launches, d.launches...)

	layers, err := layerMetrics(layerInputs{traced: ph, untraced: plain, d: d, tr: tr, launches: launches, sc: p.sc})
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	m := make(map[string]value, len(layers))
	for k, v := range layers {
		m[k] = value{v, layerUnit(k)}
	}
	fmt.Fprintf(stdout, "workload %s seed %d: traced steady phase, %d frames completed, %d spans written to %s\n",
		w.name, o.seed, ph.completed, tr.count(), path)
	printMetrics(stdout, m)
	return chk.result(m, stdout)
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_frame"):
		return "ms"
	case strings.HasSuffix(name, "_kb_per_frame"):
		return "KiB"
	case strings.HasSuffix(name, "_per_frame"), strings.HasSuffix(name, "_per_batch"):
		return "count"
	case strings.HasSuffix(name, "abandoned"), strings.HasSuffix(name, "errors"), strings.HasSuffix(name, "timeouts"):
		return "count"
	}
	return "ratio"
}

func printMetrics(w io.Writer, m map[string]value) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
