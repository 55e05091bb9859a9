package dynamics

import (
	"runtime"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
)

// TestRunnerSteadyStateAllocs pins the per-step allocation count of a
// warmed Runner: after the first run has grown every arena (scratches,
// distance cache, move and ordering buffers), further runs on same-sized
// networks must be allocation-flat — the regression guard for the
// engine's arena reuse.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	g0 := gen.BudgetNetwork(64, 3, gen.NewRand(1))
	cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Seed: 7}
	r := NewRunner()
	g := g0.Clone()
	res := r.Run(g, cfg)
	if !res.Converged || res.Steps == 0 {
		t.Fatalf("warm-up run: %+v", res)
	}
	steps := res.Steps
	perRun := testing.AllocsPerRun(5, func() {
		g.CopyFrom(g0)
		r.Run(g, cfg)
	})
	perStep := perRun / float64(steps)
	t.Logf("steady state: %.1f allocs per run, %.3f per step (%d steps)", perRun, perStep, steps)
	// The budget leaves room for incidental growth but fails on any
	// per-step or per-trial allocation creeping back in.
	if perRun > 8 {
		t.Errorf("steady-state run allocates %.1f times (%.3f per step), want <= 8 per run", perRun, perStep)
	}
}

// TestLandmarkRunnerArenaReuse pins the lazy re-scoring arenas of landmark
// mode: a warmed Runner with Workers 2 keeps each worker scratch's 64-row
// target arena and kernel scratch (the mover's scan borrows the second
// one for its helper goroutine), so a further run on a same-sized
// network allocates well under one such 64·n·4-byte
// row arena — what a reallocation of the arenas would cost at the least.
// TotalAlloc is monotonic, so the measurement is immune to GC timing.
func TestLandmarkRunnerArenaReuse(t *testing.T) {
	const n = 256
	g0 := gen.RandomConnected(n, n-1+n/4, gen.NewRand(5))
	cfg := Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   MinIndex{},
		Seed:     3,
		Workers:  2,
		MaxSteps: 8,
		Oracle:   OracleSpec{Mode: OracleLandmark, K: 1},
	}
	r := NewRunner()
	g := g0.Clone()
	if res := r.Run(g, cfg); res.Steps == 0 {
		t.Fatalf("warm-up run made no step: %+v", res)
	}
	var before, after runtime.MemStats
	g.CopyFrom(g0)
	runtime.ReadMemStats(&before)
	res := r.Run(g, cfg)
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc - before.TotalAlloc)
	arena := int64(64 * n * 4)
	t.Logf("warm landmark run: %d bytes over %d steps (row arena %d bytes)", perRun, res.Steps, arena)
	if perRun > arena/4 {
		t.Errorf("warm landmark run allocated %d bytes, want <= %d (a quarter of one row arena)", perRun, arena/4)
	}
}

// TestRunnerDetectCyclesAllocs pins the allocation budget of cycle
// detection: a warmed Runner interns visited states into its reusable
// store (fingerprint + compact encoding, no per-step graph clones), so a
// whole DetectCycles run must stay within a small constant allocation
// count — independent of its step count — alongside the steady-state
// budget above.
func TestRunnerDetectCyclesAllocs(t *testing.T) {
	g0 := gen.BudgetNetwork(64, 3, gen.NewRand(1))
	cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Seed: 7, DetectCycles: true}
	r := NewRunner()
	g := g0.Clone()
	res := r.Run(g, cfg)
	if !res.Converged || res.Cycled || res.Steps == 0 {
		t.Fatalf("warm-up run: %+v", res)
	}
	steps := res.Steps
	perRun := testing.AllocsPerRun(5, func() {
		g.CopyFrom(g0)
		r.Run(g, cfg)
	})
	t.Logf("detect-cycles steady state: %.1f allocs per run (%d steps)", perRun, steps)
	if perRun > 8 {
		t.Errorf("DetectCycles run allocates %.1f times over %d steps, want <= 8 per run (no per-step state copies)", perRun, steps)
	}
}

// TestRunnerReusedAcrossSizes checks arena resizing and cross-run
// isolation: a single Runner alternating between network sizes and games
// must reproduce the results of fresh single-use runs exactly.
func TestRunnerReusedAcrossSizes(t *testing.T) {
	r := NewRunner()
	for trial := 0; trial < 9; trial++ {
		n := []int{16, 40, 24}[trial%3]
		var gm game.Game = game.NewAsymSwap(game.Sum)
		if trial%2 == 1 {
			gm = game.NewGreedyBuy(game.Sum, game.NewAlpha(int64(n), 4))
		}
		cfg := Config{Game: gm, Policy: MaxCost{}, Seed: int64(trial)}
		gWant := gen.BudgetNetwork(n, 3, gen.NewRand(int64(trial)))
		gGot := gWant.Clone()
		want := Run(gWant, cfg)
		got := r.Run(gGot, cfg)
		if got.Steps != want.Steps || got.Converged != want.Converged || got.MoveKinds != want.MoveKinds {
			t.Fatalf("trial %d (n=%d): runner %+v, fresh %+v", trial, n, got, want)
		}
		if !gGot.Equal(gWant) {
			t.Fatalf("trial %d (n=%d): final networks differ", trial, n)
		}
	}
}
