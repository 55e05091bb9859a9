package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if v, ok := percentile(xs, 91); v != 91 || ok {
		t.Errorf("p91 of 1..100 = %v, %v; want 91 flagged unreportable (9 beyond)", v, ok)
	}
	if _, ok := percentile(make([]float64, 999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must be unreportable")
	}
	if _, ok := percentile(make([]float64, 1000), 99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and must be reportable")
	}
	if p, v, ok := tail(xs); p != 90 || v != 90 || !ok {
		t.Errorf("tail of 100 samples = p%v %v %v; want p90 = 90", p, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("10 samples support no tail percentile")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, layer: "bench", start: at(0), end: at(100)},
		// Two concurrent children overlapping on [30, 40], and one that
		// outlives its parent: together they cover [10, 60] and [90, 100].
		{id: 2, parent: 1, layer: "coord", start: at(10), end: at(40)},
		{id: 3, parent: 1, layer: "coord", start: at(30), end: at(60)},
		{id: 4, parent: 1, layer: "campaign", start: at(90), end: at(120)},
		// A grandchild only reduces its own parent's self time.
		{id: 5, parent: 2, layer: "wait", start: at(10), end: at(25)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":    40 * time.Millisecond,
		"coord":    (15 + 30) * time.Millisecond,
		"campaign": 30 * time.Millisecond,
		"wait":     15 * time.Millisecond,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestRatioBases(t *testing.T) {
	if got := perSecond(30, 2*time.Second); got != 15 {
		t.Errorf("30 per 2 s = %v, want 15", got)
	}
	if got := perSecond(30, 0); got != 0 {
		t.Errorf("a rate over no time = %v, want 0", got)
	}
	if got := ratio(3, 12); got != 0.25 {
		t.Errorf("3 of 12 = %v, want 0.25", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("a ratio over no attempts = %v, want 0", got)
	}

	// Rates divide the per-pass work by the sum of per-unit medians, so
	// one slow unit in one pass does not move them.
	passes := []*pass{
		{units: []time.Duration{1 * time.Second, 10 * time.Second}, runs: 11},
		{units: []time.Duration{2 * time.Second, 30 * time.Second}, runs: 11},
		{units: []time.Duration{9 * time.Second, 11 * time.Second}, runs: 11},
	}
	if got := robustWall(passes); got != 13*time.Second {
		t.Errorf("robust wall = %v, want 2s + 11s", got)
	}
	out := &outcome{setup: []float64{3, 1, 2}, attempted: 8, failed: 2}
	vals := endToEndValues(out, passes)
	for name, want := range map[string]float64{"runs_per_s": 11.0 / 13, "setup_s": 2, "failed_ratio": 0.25} {
		if got := vals[name].v; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := vals["runs_per_s"].n; n != 6 {
		t.Errorf("runs_per_s rests on %d samples, want 3 passes x 2 units", n)
	}
}

func TestSamePassReportsBrokenDeterminism(t *testing.T) {
	first := &pass{counts: map[string]int64{"dynamics.steps": 10, "coord.polls": 4}, hashes: []uint64{1}, output: [][]byte{[]byte("a")}}
	same := &pass{counts: map[string]int64{"dynamics.steps": 10, "coord.polls": 9}, hashes: []uint64{1}, output: [][]byte{[]byte("a")}}
	if fails := samePass(first, same); len(fails) != 0 {
		t.Errorf("timing-dependent counts must not fail the guard: %v", fails)
	}
	other := &pass{counts: map[string]int64{"dynamics.steps": 11}, hashes: []uint64{2}, output: [][]byte{[]byte("b")}}
	fails := samePass(first, other)
	if len(fails) != 3 {
		t.Fatalf("want a count, a trace and an output mismatch, got %v", fails)
	}
	for _, f := range fails {
		if !strings.Contains(f, "determinism contract broken") {
			t.Errorf("mismatch %q is not reported as a determinism break", f)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the repository's
// BENCHMARK.json and the metrics this program prints in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// TestHuntPassMatchesReference drives a small campaign through the
// instrumented service path; under -race it covers the state the worker,
// the watcher and the server handlers share.
func TestHuntPassMatchesReference(t *testing.T) {
	b := &huntBench{instances: 6, state: t.TempDir()}
	defer b.close()
	if err := b.setup(3); err != nil {
		t.Fatal(err)
	}
	if err := b.reference(); err != nil {
		t.Fatal(err)
	}
	tr := &tracer{on: true}
	p, err := b.pass(tr, tr.id(), true)
	if err != nil {
		t.Fatal(err)
	}
	if fails, _ := b.verify(tr, 0, p); len(fails) > 0 {
		t.Fatal(fails)
	}
	if p.recs != 12 || len(p.units) != 6 || len(p.lags) != 12 {
		t.Errorf("got %v records, %d completions, %d lags; want 12, 6, 12", p.recs, len(p.units), len(p.lags))
	}
	if p.counts["coord.calls"] != 12 || p.errs != 0 {
		t.Errorf("got %d worker calls and %d errors; want 6 leases + 6 completions and none", p.counts["coord.calls"], p.errs)
	}
	if self := selfTimes(tr.take()); self["coord"] <= 0 || self["campaign"] <= 0 {
		t.Errorf("traced pass recorded no coord or campaign self time: %v", self)
	}
}
