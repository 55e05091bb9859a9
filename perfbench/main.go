// Command perfbench is the repository's same-machine benchmark. It runs
// one workload for a fixed time, checks every output against a
// reference computed in the same invocation, and prints its metrics:
// a human-readable table, then one JSON object as the last line.
//
//	go run . --workload converge-n256 --seed 1 --seconds 10 --trace 0
//
// Everything is measured from outside the program, by timing this
// package's own calls into the modules' public functions. --trace 1
// records spans around those calls and prints per-layer numbers, each
// layer's self time and the tracing overhead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is how many times set-up runs; setup_s is their median.
	setupRepeats = 9
	// minPasses is the fewest timed passes a run makes, traced or not:
	// each unit's time is its median over the passes, so a burst of
	// interference on a shared machine is outvoted.
	minPasses = 3
)

// pass is what one timed pass over a workload's inputs measured.
type pass struct {
	wall   time.Duration   // the timed work only
	units  []time.Duration // the timed work split into the same units every pass
	runs   float64         // dynamics runs, ensemble trials or instance searches
	moves  float64         // improving moves applied
	recs   float64         // records emitted
	states float64         // states explored
	steps  []float64       // OnStep gaps, ms
	lags   []float64       // commit-to-delivery stream lags, ms
	layer  map[string]float64
	counts map[string]int64 // must repeat exactly at one seed
	hashes []uint64         // per-run trace hashes, equal in every pass
	output [][]byte         // record bytes, equal in every pass
	kept   any              // what verify needs, retained by the first pass only
	ops    int              // operations attempted
	errs   int              // operations that errored or were retried
	spans  []span
}

func newPass() *pass {
	return &pass{layer: map[string]float64{}, counts: map[string]int64{}}
}

// bench is one workload's implementation.
type bench interface {
	// setup generates the inputs from the seed; it is timed as setup_s.
	setup(seed int64) error
	// reference computes, once and untimed, the outputs of an independent
	// configuration that the passes must reproduce.
	reference() error
	// pass runs the timed work once; keep retains what verify needs.
	pass(tr *tracer, root int64, keep bool) (*pass, error)
	// verify checks the kept pass, untimed, by replay or against the
	// reference, and returns the failures and the per-layer values the
	// checks measured. Every other pass must equal the kept one.
	verify(tr *tracer, root int64, p *pass) (failures []string, layer map[string]float64)
	// close releases what setup acquired.
	close()
}

// workloadInfo names a workload and the reported end-to-end metrics it
// produces. Why each workload exists is recorded in BENCHMARK.json.
type workloadInfo struct {
	name    string
	metrics []string
	make    func(stateDir string) bench
}

var workloads = []workloadInfo{
	{
		name:    "converge-n256",
		metrics: []string{"setup_s", "runs_per_s", "moves_per_s", "step_p50_ms", "peak_heap_mb", "failed_ratio"},
		make:    func(string) bench { return &convergeBench{} },
	},
	{
		name:    "paper-sweep",
		metrics: []string{"setup_s", "runs_per_s", "moves_per_s", "records_per_s", "peak_heap_mb", "failed_ratio"},
		make:    func(string) bench { return &sweepBench{} },
	},
	{
		name:    "landmark-n8192",
		metrics: []string{"setup_s", "runs_per_s", "moves_per_s", "step_p50_ms", "peak_heap_mb", "failed_ratio"},
		make:    func(string) bench { return &landmarkBench{} },
	},
	{
		name:    "hunt-service",
		metrics: []string{"setup_s", "runs_per_s", "records_per_s", "states_per_s", "stream_lag_p50_ms", "peak_heap_mb", "failed_ratio"},
		make:    func(dir string) bench { return &huntBench{instances: huntInstances, state: dir} },
	},
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run's JSON line: the ones
// every workload produces, never 0, and steady across seeds, so each can
// be gated on each workload. The others are printed in the table and
// carried in the traced run's JSON (perLayer).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
}

// e2eDetail are the end-to-end metrics that only some workloads produce
// (failed_ratio is 0 on a good run), or that move with the seed or the
// garbage collector's timing as much as with the code (peak_heap_mb).
var e2eDetail = []metricDef{
	{"peak_heap_mb", "MB"},
	{"moves_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"records_per_s", "1/s"},
	{"states_per_s", "1/s"},
	{"stream_lag_p50_ms", "ms"},
	{"failed_ratio", "ratio"},
}

// layers are the modules spans are attributed to; "bench" is this
// package's own code and "wait" is time parked in a long poll.
var layers = []string{"bench", "gen", "graph", "game", "dynamics", "ensemble", "campaign", "coord", "wait"}

// perLayer lists every metric of the traced run's JSON line, in order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"gen.input_ms", "ms"},
		{"dynamics.run_ms.asg", "ms"},
		{"dynamics.run_ms.gbg", "ms"},
		{"dynamics.first_step_ms", "ms"},
		{"dynamics.final_sweep_ms", "ms"},
		{"dynamics.step_p99_ms", "ms"},
		{"dynamics.stable_ms", "ms"},
		{"dynamics.steps", "count"},
		{"dynamics.moves.delete", "count"},
		{"dynamics.moves.swap", "count"},
		{"dynamics.moves.buy", "count"},
		{"game.cost_us", "us"},
	}
	for _, sc := range sweepScenarios {
		defs = append(defs, metricDef{"ensemble.scenario_ms." + sc, "ms"})
	}
	defs = append(defs,
		metricDef{"ensemble.sink_write_us", "us"},
		metricDef{"ensemble.emit_gap_p90_ms", "ms"},
		metricDef{"ensemble.records", "count"},
		metricDef{"campaign.shard_ms", "ms"},
		metricDef{"campaign.states", "count"},
		metricDef{"coord.lease_ms", "ms"},
		metricDef{"coord.complete_ms", "ms"},
		metricDef{"coord.stream_poll_ms", "ms"},
		metricDef{"coord.handler.lease_ms", "ms"},
		metricDef{"coord.handler.complete_ms", "ms"},
		metricDef{"coord.stream_wait_ms", "ms"},
		metricDef{"coord.stream_lag_p90_ms", "ms"},
		metricDef{"coord.calls", "count"},
		metricDef{"coord.retries", "count"},
		metricDef{"coord.polls", "count"},
		metricDef{"coord.stream_bytes", "count"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	defs = append(defs,
		metricDef{"trace.overhead.runs_per_s", "1/s"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return append(defs, e2eDetail...)
}

// timingCounts are the counts that depend on timing, not on the inputs,
// and so are left out of the exact-count guard: how many long polls a
// watcher needs depends on when commits land.
var timingCounts = map[string]bool{"coord.polls": true}

type value struct {
	v float64
	n int // samples behind v
}

// outcome is everything one invocation measured.
type outcome struct {
	setup     []float64 // seconds
	passes    []*pass   // untraced
	traced    []*pass
	refLayer  map[string]float64
	refSpans  []span
	failures  []string
	attempted int
	failed    int
	heapMB    float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (or \"all\")")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for the coordinator's state and the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var info *workloadInfo
	for i := range workloads {
		if workloads[i].name == *name {
			info = &workloads[i]
		}
	}
	if info == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	out, err := measure(info, filepath.Join(*dir, "state"), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", info.name, err)
		return 1
	}
	if *trace == 1 {
		path := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", info.name, *seed))
		if err := writeSpans(path, out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	line, err := report(stdout, info, *seed, out, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(out.failures) > 0 {
		for _, f := range out.failures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", info.name, f)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll re-runs this binary once per workload, so each workload's peak
// heap is that of a process that ran only it.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// measure runs set-up, the reference, the timed passes and the checks.
func measure(info *workloadInfo, stateDir string, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	b := info.make(stateDir)
	defer b.close()
	out := &outcome{}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	if err := b.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	runPass := func(on bool) error {
		tr := &tracer{on: on}
		t0 := time.Now()
		root := tr.id()
		p, err := b.pass(tr, root, len(out.passes) == 0 && !on)
		if err != nil {
			return err
		}
		tr.add(root, 0, "bench", "pass", t0, time.Now())
		p.spans = tr.take()
		if on {
			out.traced = append(out.traced, p)
		} else {
			out.passes = append(out.passes, p)
		}
		return nil
	}
	start := time.Now()
	for len(out.passes) < minPasses || time.Since(start) < budget {
		if err := runPass(false); err != nil {
			return nil, fmt.Errorf("pass: %w", err)
		}
		if traced {
			if err := runPass(true); err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
		}
	}

	checkTr := &tracer{on: traced}
	root := checkTr.id()
	t0 := time.Now()
	first := out.passes[0]
	fails, layer := b.verify(checkTr, root, first)
	checkTr.add(root, 0, "bench", "verify", t0, time.Now())
	out.refLayer, out.refSpans = layer, checkTr.take()
	first.kept = nil
	out.attempted++
	if len(fails) > 0 {
		out.failed++
		out.failures = append(out.failures, fails...)
	}
	all := append(append([]*pass(nil), out.passes...), out.traced...)
	for i, p := range all {
		out.attempted += p.ops + 1
		out.failed += p.errs
		if fails := samePass(first, p); len(fails) > 0 {
			out.failed++
			for _, f := range fails {
				out.failures = append(out.failures, fmt.Sprintf("pass %d: %s", i, f))
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapSys) / (1 << 20)
	return out, nil
}

// samePass reports how a pass differs from the first pass at the same
// seed. Every difference is a broken determinism contract, not noise.
func samePass(want, got *pass) []string {
	var out []string
	for k, w := range want.counts {
		if g := got.counts[k]; g != w && !timingCounts[k] {
			out = append(out, fmt.Sprintf("determinism contract broken: count %s = %d, first pass had %d", k, g, w))
		}
	}
	sort.Strings(out)
	if !slices.Equal(want.hashes, got.hashes) {
		out = append(out, "determinism contract broken: run traces differ from the first pass")
	}
	if len(want.output) != len(got.output) {
		out = append(out, "determinism contract broken: output count differs from the first pass")
	} else {
		for i := range want.output {
			if !bytes.Equal(want.output[i], got.output[i]) {
				out = append(out, fmt.Sprintf("determinism contract broken: output %d differs from the first pass", i))
			}
		}
	}
	return out
}

// robustWall is the timed work of one pass with each unit's time taken
// as its median over the passes.
func robustWall(passes []*pass) time.Duration {
	var total time.Duration
	for u := range passes[0].units {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, float64(p.units[u]))
		}
		total += time.Duration(median(xs))
	}
	return total
}

// endToEndValues derives the end-to-end metrics from a set of passes.
// Work counts are equal in every pass; rates divide them by robustWall.
func endToEndValues(out *outcome, passes []*pass) map[string]value {
	wall := robustWall(passes)
	n := len(passes) * len(passes[0].units)
	p := passes[0]
	var steps, lags []float64
	for _, p := range passes {
		steps = append(steps, p.steps...)
		lags = append(lags, p.lags...)
	}
	return map[string]value{
		"setup_s":           {median(out.setup), len(out.setup)},
		"runs_per_s":        {perSecond(p.runs, wall), n},
		"moves_per_s":       {perSecond(p.moves, wall), n},
		"records_per_s":     {perSecond(p.recs, wall), n},
		"states_per_s":      {perSecond(p.states, wall), n},
		"step_p50_ms":       {median(steps), len(steps)},
		"stream_lag_p50_ms": {median(lags), len(lags)},
		"peak_heap_mb":      {out.heapMB, 1},
		"failed_ratio":      {ratio(float64(out.failed), float64(out.attempted)), out.attempted},
	}
}

// layerValues derives the per-layer metrics from the traced passes, the
// checks, and the untraced passes of the same invocation.
func layerValues(info *workloadInfo, out *outcome) map[string]value {
	vals := map[string]value{}
	keys := map[string]bool{}
	for _, p := range out.traced {
		for k := range p.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, p := range out.traced {
			if v, ok := p.layer[k]; ok {
				xs = append(xs, v)
			}
		}
		vals[k] = value{median(xs), len(xs)}
	}
	for k, v := range out.refLayer {
		vals[k] = value{v, 1}
	}
	for k, c := range out.traced[0].counts {
		vals[k] = value{float64(c), 1}
	}
	self := map[string]time.Duration{}
	for _, p := range out.traced {
		for l, d := range selfTimes(p.spans) {
			self[l] += d
		}
	}
	for _, l := range layers {
		vals["self_ms."+l] = value{ms(self[l]) / float64(len(out.traced)), len(out.traced)}
	}
	plain := endToEndValues(out, out.passes)
	withSpans := endToEndValues(out, out.traced)
	vals["trace.overhead.runs_per_s"] = value{withSpans["runs_per_s"].v - plain["runs_per_s"].v, len(out.traced)}
	vals["trace.overhead_ratio"] = value{ratio(plain["runs_per_s"].v-withSpans["runs_per_s"].v, plain["runs_per_s"].v), len(out.traced)}
	for _, m := range info.metrics {
		if _, isE2E := plain[m]; isE2E {
			vals[m] = plain[m]
		}
	}
	return vals
}

// writeSpans writes every span of the traced passes and the checks as
// JSON lines, times in microseconds from the first span's start. Pass -1
// holds the checks.
func writeSpans(path string, out *outcome) error {
	type line struct {
		Pass    int    `json:"pass"`
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent"`
		Layer   string `json:"layer"`
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
	}
	groups := [][]span{out.refSpans}
	for _, p := range out.traced {
		groups = append(groups, p.spans)
	}
	var t0 time.Time
	for _, g := range groups {
		for _, s := range g {
			if t0.IsZero() || s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, g := range groups {
		for _, s := range g {
			if err := enc.Encode(line{i - 1, s.id, s.parent, s.layer, s.name,
				s.start.Sub(t0).Microseconds(), s.end.Sub(t0).Microseconds()}); err != nil {
				return err
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// report prints the table and returns the JSON line.
func report(w io.Writer, info *workloadInfo, seed int64, out *outcome, traced bool) (string, error) {
	var wall time.Duration
	for _, p := range out.passes {
		wall += p.wall
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", info.name, seed, traced)
	fmt.Fprintf(w, "  %d untraced pass(es), %.2f s timed; %d traced pass(es); %d/%d operations failed\n",
		len(out.passes), wall.Seconds(), len(out.traced), out.failed, out.attempted)
	metrics := map[string]any{}
	if !traced {
		e2e := endToEndValues(out, out.passes)
		fmt.Fprintln(w, "  end-to-end:")
		for _, d := range append(append([]metricDef(nil), endToEnd...), e2eDetail...) {
			if !slices.Contains(info.metrics, d.name) {
				fmt.Fprintf(w, "    %-20s %14s\n", d.name, "n/a")
				continue
			}
			v := e2e[d.name]
			fmt.Fprintf(w, "    %-20s %14.6g %-6s n=%d%s\n", d.name, v.v, d.unit, v.n, tailNote(d.name, out.passes))
		}
		for _, d := range endToEnd {
			if e2e[d.name].v == 0 {
				return "", fmt.Errorf("end-to-end metric %s measured 0", d.name)
			}
			metrics[d.name] = map[string]any{"value": e2e[d.name].v, "unit": d.unit}
		}
	} else {
		vals := layerValues(info, out)
		fmt.Fprintln(w, "  per layer (traced passes; 0 = layer not exercised by this workload):")
		for _, d := range perLayer() {
			v := vals[d.name]
			if v.n > 0 {
				fmt.Fprintf(w, "    %-40s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
			}
			metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
		}
		fmt.Fprint(w, "  checks' self time by layer (ms):")
		self := selfTimes(out.refSpans)
		for _, l := range layers {
			if d := self[l]; d > 0 {
				fmt.Fprintf(w, " %s=%.4g", l, ms(d))
			}
		}
		fmt.Fprintln(w)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.failures) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return "", errors.New("encoding the result: " + err.Error())
	}
	return string(line), nil
}

// tailNote adds the highest reportable tail percentile to a latency row.
func tailNote(name string, passes []*pass) string {
	var xs []float64
	for _, p := range passes {
		switch name {
		case "step_p50_ms":
			xs = append(xs, p.steps...)
		case "stream_lag_p50_ms":
			xs = append(xs, p.lags...)
		default:
			return ""
		}
	}
	if p, v, ok := tail(xs); ok {
		return fmt.Sprintf("  p%g=%.4g ms", p, v)
	}
	return ""
}
