package main

import (
	"fmt"
	"slices"
	"time"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/graph"
)

// runTrace is one dynamics run as seen through its OnStep hook.
type runTrace struct {
	gaps   []time.Duration // before each OnStep; the first starts at Run entry
	final  time.Duration   // last OnStep return (or Run entry) to Run return
	total  time.Duration
	hash   uint64 // FNV-1a over every (mover, move)
	movers []int  // kept only when the run is to be replayed
	moves  []game.Move
	res    dynamics.Result
}

// timedRun calls run with cfg's OnStep hooked. The time spent inside the
// hook is excluded from the gaps, so a gap is the engine's own work
// between two applied moves.
func timedRun(tr *tracer, parent int64, keep bool, cfg dynamics.Config, run func(dynamics.Config) dynamics.Result) *runTrace {
	rt := &runTrace{hash: fnvOffset}
	runID := tr.id()
	var last time.Time
	cfg.OnStep = func(step, mover int, mv game.Move, g graph.Store) {
		now := time.Now()
		rt.gaps = append(rt.gaps, now.Sub(last))
		tr.record(runID, "dynamics", "step", last, now)
		rt.hash = fnvInt(rt.hash, mover)
		rt.hash = fnvInt(rt.hash, mv.Agent)
		rt.hash = fnvInt(rt.hash, len(mv.Drop))
		for _, v := range mv.Drop {
			rt.hash = fnvInt(rt.hash, v)
		}
		for _, v := range mv.Add {
			rt.hash = fnvInt(rt.hash, v)
		}
		if keep {
			rt.movers = append(rt.movers, mover)
			rt.moves = append(rt.moves, mv)
		}
		last = time.Now()
		tr.record(runID, "bench", "on-step", now, last)
	}
	start := time.Now()
	last = start
	rt.res = run(cfg)
	end := time.Now()
	rt.final = end.Sub(last)
	rt.total = end.Sub(start)
	tr.add(runID, parent, "dynamics", "run", start, end)
	return rt
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// addRun folds one run into a pass: work, step samples and counts.
func addRun(p *pass, rt *runTrace) {
	p.wall += rt.total
	p.units = append(p.units, rt.total)
	p.runs++
	p.moves += float64(rt.res.Steps)
	for _, g := range rt.gaps {
		p.steps = append(p.steps, ms(g))
	}
	p.ops++
	p.counts["dynamics.steps"] += int64(rt.res.Steps)
	addMoveCounts(p, rt.res.MoveKinds)
	p.hashes = append(p.hashes, rt.hash)
}

// moveCountName names the per-kind move counts, indexed by game.MoveKind.
var moveCountName = [4]string{game.KindDelete: "dynamics.moves.delete", game.KindSwap: "dynamics.moves.swap", game.KindBuy: "dynamics.moves.buy"}

// addMoveCounts adds moves by kind (multi-swaps have no count of their own).
func addMoveCounts(p *pass, kinds [4]int) {
	for k, m := range kinds {
		if name := moveCountName[k]; name != "" {
			p.counts[name] += int64(m)
		}
	}
}

// dynLayer sets the per-pass dynamics metrics from its runs' traces.
func dynLayer(p *pass, runs []*runTrace) {
	var first, final []float64
	for _, rt := range runs {
		if len(rt.gaps) > 0 {
			first = append(first, ms(rt.gaps[0]))
		}
		final = append(final, ms(rt.final))
	}
	p.layer["dynamics.first_step_ms"] = median(first)
	p.layer["dynamics.final_sweep_ms"] = median(final)
	if v, ok := percentile(p.steps, 99); ok {
		p.layer["dynamics.step_p99_ms"] = v
	}
}

// replay checks a reference run on g, a copy of its start: every
// recorded move must strictly lower its mover's cost, the replay must
// end in the run's final network, and a converged run must end stable.
// It appends each game.Cost call's time (µs) to costs and adds the
// stability check's time to layer["dynamics.stable_ms"].
func replay(tr *tracer, parent int64, name string, g, final graph.Store, gm game.Game, rt *runTrace, layer map[string]float64, costs *[]float64) []string {
	var fails []string
	s := game.NewScratch(g.N())
	cost := func(u int) game.Cost {
		t0 := time.Now()
		c := gm.Cost(g, u, s)
		t1 := time.Now()
		*costs = append(*costs, float64(t1.Sub(t0))/float64(time.Microsecond))
		tr.record(parent, "game", "cost", t0, t1)
		return c
	}
	for k, mv := range rt.moves {
		u := rt.movers[k]
		before := cost(u)
		t0 := time.Now()
		game.ApplyMove(g, mv)
		tr.record(parent, "game", "apply", t0, time.Now())
		if after := cost(u); !after.Less(before, gm.Alpha()) {
			fails = append(fails, fmt.Sprintf("%s step %d: move %v of agent %d does not lower its cost (%v -> %v)", name, k+1, mv, u, before, after))
		}
	}
	if !slices.Equal(g.AppendOwnedRows(nil), final.AppendOwnedRows(nil)) {
		fails = append(fails, name+": replayed trace does not end in the run's final network")
	}
	if rt.res.Converged {
		t0 := time.Now()
		stable := dynamics.Stable(g, gm)
		t1 := time.Now()
		tr.record(parent, "dynamics", "stable", t0, t1)
		layer["dynamics.stable_ms"] += ms(t1.Sub(t0))
		if !stable {
			fails = append(fails, name+": run reports convergence but the final network is not stable")
		}
	}
	return fails
}
