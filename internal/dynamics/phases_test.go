package dynamics

import (
	"strings"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
)

func TestProfileSegments(t *testing.T) {
	kinds := []game.MoveKind{
		game.KindDelete, game.KindDelete, game.KindDelete,
		game.KindSwap, game.KindSwap, game.KindBuy,
		game.KindSwap, game.KindDelete, game.KindDelete,
	}
	pp := Profile(kinds)
	if pp.Opening.Fraction(game.KindDelete) != 1 {
		t.Fatalf("opening = %+v", pp.Opening)
	}
	if pp.Middle.Fraction(game.KindSwap) < 0.6 {
		t.Fatalf("middle = %+v", pp.Middle)
	}
	if pp.Opening.Moves+pp.Middle.Moves+pp.End.Moves != len(kinds) {
		t.Fatal("segments do not cover the trajectory")
	}
	if !strings.Contains(pp.String(), "opening[del 100%") {
		t.Fatalf("render: %s", pp.String())
	}
}

// TestTrajectoryPhases reproduces the Section 4.2.2 observation on dense
// SUM-GBG runs (m = 4n, alpha = n/4): the opening is deletion-dominated
// and deletions dominate buys overall.
func TestTrajectoryPhases(t *testing.T) {
	agg := PhaseProfile{}
	for trial := 0; trial < 8; trial++ {
		n := 24
		r := gen.NewRand(int64(trial) + 100)
		g := gen.RandomConnected(n, 4*n, r)
		gm := game.NewGreedyBuy(game.Sum, game.NewAlpha(int64(n), 4))
		res := Run(g, Config{Game: gm, Policy: Random{}, Seed: int64(trial)})
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		pp := Profile(res.Kinds)
		agg.Opening.Moves += pp.Opening.Moves
		agg.Middle.Moves += pp.Middle.Moves
		agg.End.Moves += pp.End.Moves
		for k := 0; k < 4; k++ {
			agg.Opening.Counts[k] += pp.Opening.Counts[k]
			agg.Middle.Counts[k] += pp.Middle.Counts[k]
			agg.End.Counts[k] += pp.End.Counts[k]
		}
	}
	if agg.Opening.Fraction(game.KindDelete) < 0.5 {
		t.Fatalf("opening not deletion-dominated: %s", agg.String())
	}
	if agg.Opening.Fraction(game.KindDelete) <= agg.Middle.Fraction(game.KindDelete) {
		t.Fatalf("deletions should fade after the opening: %s", agg.String())
	}
	t.Logf("aggregate phases: %s", agg.String())
}
