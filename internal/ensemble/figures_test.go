package ensemble

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ncg/internal/game"
)

// figureIDs are the empirical figures Figure regenerates.
var figureIDs = []int{7, 8, 11, 12, 13, 14}

// TestFigureSmoke checks that every figure id builds, runs and renders on
// a miniature grid: non-empty series, aligned tables mentioning every
// series name, and a finite bound.
func TestFigureSmoke(t *testing.T) {
	for _, num := range figureIDs {
		opt := FigureOptions{Ns: []int{10}, Trials: 3, Seed: 13}
		fr, err := Figure(num, opt)
		if err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
		if len(fr.Series) == 0 {
			t.Fatalf("figure %d: no series", num)
		}
		out := fr.Render()
		if !strings.Contains(out, fr.Name) {
			t.Fatalf("figure %d: render missing title:\n%s", num, out)
		}
		for _, s := range fr.Series {
			if !strings.Contains(out, s.Scenario) {
				t.Fatalf("figure %d: render missing series %q", num, s.Scenario)
			}
			if len(s.Aggregates) != len(fr.Ns) {
				t.Fatalf("figure %d series %q: %d points for %d ns", num, s.Scenario, len(s.Aggregates), len(fr.Ns))
			}
		}
		if b := fr.Bound(); b < 0 {
			t.Fatalf("figure %d: negative bound %f", num, b)
		}
	}
}

// TestFigureGoldenParity proves the figure path is seed-for-seed identical
// to the original one: testdata/figures_golden.txt was rendered by the
// first figure implementation (direct worker-pool trial loop, before the
// ensemble spine existed) at Ns={12,16}, Trials=8, Seed=42, and Figure
// must reproduce it byte for byte.
func TestFigureGoldenParity(t *testing.T) {
	want, err := os.ReadFile("testdata/figures_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, num := range figureIDs {
		opt := FigureOptions{Ns: []int{12, 16}, Trials: 8, Seed: 42}
		fr, err := Figure(num, opt)
		if err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
		fmt.Fprintf(&sb, "=== fig %d ===\n%s", num, fr.Render())
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("figure path diverged from the golden output.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFigureWorkerParity checks the figure path is invariant under the
// executor's parallelism, the property the ensemble spine guarantees.
func TestFigureWorkerParity(t *testing.T) {
	render := func(workers int) string {
		opt := FigureOptions{Ns: []int{12}, Trials: 6, Seed: 21, Workers: workers}
		fr, err := Figure(7, opt)
		if err != nil {
			t.Fatal(err)
		}
		return fr.Render()
	}
	if a, b := render(1), render(7); a != b {
		t.Fatalf("worker count changed figure output:\n%s\nvs\n%s", a, b)
	}
}

// requireConverged fails unless every trial of every series converged.
func requireConverged(t *testing.T, fr FigureResult) {
	t.Helper()
	for _, s := range fr.Series {
		for _, a := range s.Aggregates {
			if a.Converged != a.Trials {
				t.Fatalf("%s n=%d: %d/%d converged", s.Scenario, a.N, a.Converged, a.Trials)
			}
		}
	}
}

// TestFig7SmokeBound runs a miniature Figure 7 sweep and checks the paper's
// headline observation: convergence in at most 5n steps, and all runs
// converge (no cycles in random instances).
func TestFig7SmokeBound(t *testing.T) {
	fr, err := Figure(7, FigureOptions{Ns: []int{12, 20}, Trials: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Series) == 0 {
		t.Fatal("no series")
	}
	requireConverged(t, fr)
	if b := fr.Bound(); b > 6 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 5n envelope plus slack", b)
	}
}

// TestFig8SmokeBound is the MAX-ASG analogue (paper: <= 5n with one
// outlier; we allow the envelope plus slack for small-sample noise).
func TestFig8SmokeBound(t *testing.T) {
	fr, err := Figure(8, FigureOptions{Ns: []int{12, 20}, Trials: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, fr)
	if b := fr.Bound(); b > 6 {
		t.Fatalf("max steps/n = %.2f far exceeds the paper's envelope", b)
	}
}

// TestFig11SmokeBound checks the SUM-GBG 7n envelope on a miniature grid.
func TestFig11SmokeBound(t *testing.T) {
	fr, err := Figure(11, FigureOptions{Ns: []int{12, 20}, Trials: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, fr)
	if b := fr.Bound(); b > 9 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 7n envelope plus slack", b)
	}
}

// TestFig13SmokeBound checks the MAX-GBG 8n envelope.
func TestFig13SmokeBound(t *testing.T) {
	fr, err := Figure(13, FigureOptions{Ns: []int{12, 20}, Trials: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if b := fr.Bound(); b > 10 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 8n envelope plus slack", b)
	}
}

// TestFig12TopologiesRun exercises the topology comparison plumbing.
func TestFig12TopologiesRun(t *testing.T) {
	fr, err := Figure(12, FigureOptions{Ns: []int{10}, Trials: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 2 policies x 3 topologies x 4 alphas.
	if len(fr.Series) != 24 {
		t.Fatalf("series = %d, want 24", len(fr.Series))
	}
	out := fr.Render()
	if !strings.Contains(out, "dl a=n/2 random") {
		t.Fatalf("render missing series:\n%s", out)
	}
}

func TestFigureDispatch(t *testing.T) {
	opt := FigureOptions{Ns: []int{10}, Trials: 4, Seed: 9}
	for _, num := range figureIDs {
		if _, err := Figure(num, opt); err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
	}
	if _, err := Figure(2, opt); err == nil {
		t.Fatal("expected error for theory figures")
	}
}

// TestFigureRejectsInfeasibleGrid: a grid the GBG or topology ensembles
// cannot draw (m = 4n needs n >= 9, m = n needs n >= 3) is an error
// returned before any trial runs, never a generator panic. Budget-k
// series of Figures 7 and 8 are left out instead, as they always were.
func TestFigureRejectsInfeasibleGrid(t *testing.T) {
	for _, tc := range []struct {
		num int
		ns  []int
	}{
		{11, []int{2, 4}},
		{11, []int{5}},
		{12, []int{2}},
		{13, []int{5}},
		{14, []int{2}},
	} {
		if _, err := Figure(tc.num, FigureOptions{Ns: tc.ns, Trials: 1, Seed: 1}); err == nil {
			t.Errorf("figure %d at ns=%v: no error", tc.num, tc.ns)
		}
	}
	fr, err := Figure(7, FigureOptions{Ns: []int{5}, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// n=5 admits only k=1 and k=2, under both policies.
	if len(fr.Series) != 4 {
		t.Fatalf("figure 7 at n=5: %d series, want 4", len(fr.Series))
	}
}

// TestFigureRejectsDegenerateOptions: no trials or no agent counts is an
// error, not a table of zeros.
func TestFigureRejectsDegenerateOptions(t *testing.T) {
	for _, opt := range []FigureOptions{
		{Ns: []int{10}, Trials: 0, Seed: 1},
		{Ns: []int{10}, Trials: -3, Seed: 1},
		{Ns: nil, Trials: 4, Seed: 1},
	} {
		if _, err := Figure(7, opt); err == nil {
			t.Errorf("options %+v: no error", opt)
		}
	}
}

// TestGBGDeletionPhase reproduces the Section 4.2.2 trajectory
// observation: on dense initial networks with high alpha, the first phase
// of a SUM-GBG run is dominated by deletions.
func TestGBGDeletionPhase(t *testing.T) {
	sc, ok := Lookup("gbg-sum-dense-an")
	if !ok {
		t.Fatal("gbg-sum-dense-an not registered")
	}
	sum, err := Execute(sc, Options{Ns: []int{20}, Trials: 10, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := sum.Aggregates[0]
	if a.Converged != a.Trials {
		t.Fatalf("convergence incomplete: %+v", a)
	}
	del := a.TotalMoves[game.KindDelete]
	buy := a.TotalMoves[game.KindBuy]
	if del <= buy {
		t.Fatalf("expected deletions to dominate buys at m=4n, alpha=n: del=%d buy=%d", del, buy)
	}
	// Stable networks at alpha = n are sparse; from 4n initial edges, at
	// least 2n net deletions must happen in every converging run.
	if del-buy < 2*20*a.Trials {
		t.Fatalf("net deletions %d below structural minimum", del-buy)
	}
}
