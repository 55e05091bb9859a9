package dynamics

import (
	"fmt"
	"strings"

	"ncg/internal/game"
)

// Phase analysis of Greedy Buy Game trajectories (Section 4.2.2): the
// paper describes typical runs as a deletion-dominated opening, a
// swap/buy-dominated middle game, and a mixed cleanup. PhaseProfile
// segments a move-kind trajectory (Result.Kinds) into thirds and reports
// the kind mix of each, which makes those qualitative descriptions
// measurable.

// PhaseStats is the move-kind mix of one segment of a trajectory.
type PhaseStats struct {
	Moves  int
	Counts [4]int // indexed by game.MoveKind
}

// Fraction returns the share of the given kind in the segment.
func (p PhaseStats) Fraction(k game.MoveKind) float64 {
	if p.Moves == 0 {
		return 0
	}
	return float64(p.Counts[k]) / float64(p.Moves)
}

// PhaseProfile summarizes a trajectory in three equal segments.
type PhaseProfile struct {
	Opening, Middle, End PhaseStats
}

// Profile segments the trajectory of move kinds into thirds.
func Profile(kinds []game.MoveKind) PhaseProfile {
	var pp PhaseProfile
	n := len(kinds)
	segment := func(lo, hi int) PhaseStats {
		st := PhaseStats{Moves: hi - lo}
		for _, k := range kinds[lo:hi] {
			st.Counts[k]++
		}
		return st
	}
	pp.Opening = segment(0, n/3)
	pp.Middle = segment(n/3, 2*n/3)
	pp.End = segment(2*n/3, n)
	return pp
}

// String renders the profile as three "deletes/swaps/buys" mixes.
func (pp PhaseProfile) String() string {
	var sb strings.Builder
	for i, seg := range []struct {
		name string
		st   PhaseStats
	}{{"opening", pp.Opening}, {"middle", pp.Middle}, {"end", pp.End}} {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s[del %.0f%% swap %.0f%% buy %.0f%%]",
			seg.name,
			100*seg.st.Fraction(game.KindDelete),
			100*seg.st.Fraction(game.KindSwap),
			100*seg.st.Fraction(game.KindBuy))
	}
	return sb.String()
}
