package main

import (
	"fmt"
	"time"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// converge-n256: max-cost dynamics to equilibrium at n=256 through one
// reused Runner with the exact oracle, one worker. 8 SUM-ASG runs start
// on budget-3 networks, 4 SUM-GBG runs (alpha = n/4) on random connected
// networks with m = 2n.
const (
	convergeN    = 256
	convergeASG  = 8
	convergeGBG  = 4
	convergeK    = 3
	convergeMMul = 2
)

type convergeInput struct {
	family string // "asg" or "gbg"
	start  *graph.Graph
	game   func() game.Game
	seed   int64
}

type convergeBench struct {
	inputs []convergeInput
	genMs  []float64
	runner *dynamics.Runner
}

func (b *convergeBench) setup(seed int64) error {
	t0 := time.Now()
	r := gen.NewRand(seed)
	b.inputs = b.inputs[:0]
	for i := 0; i < convergeASG+convergeGBG; i++ {
		in := convergeInput{seed: gen.Seed(seed, uint64(i))}
		if i < convergeASG {
			in.family = "asg"
			in.start = gen.BudgetNetwork(convergeN, convergeK, r)
			in.game = func() game.Game { return game.NewAsymSwap(game.Sum) }
		} else {
			in.family = "gbg"
			in.start = gen.RandomConnected(convergeN, convergeMMul*convergeN, r)
			in.game = func() game.Game { return game.NewGreedyBuy(game.Sum, game.AlphaInt(convergeN/4)) }
		}
		b.inputs = append(b.inputs, in)
	}
	b.genMs = append(b.genMs, ms(time.Since(t0)))
	b.runner = dynamics.NewRunner()
	return nil
}

func (b *convergeBench) config(in convergeInput) dynamics.Config {
	return dynamics.Config{
		Game:    in.game(),
		Policy:  dynamics.MaxCost{},
		Seed:    in.seed,
		Workers: 1,
		Oracle:  dynamics.OracleSpec{Mode: dynamics.OracleExact},
	}
}

// convergeKept is what the first pass retains for the replay check.
type convergeKept struct {
	runs   []*runTrace
	finals []*graph.Graph
}

func (b *convergeBench) reference() error { return nil }

// pass plays every input once through the shared Runner.
func (b *convergeBench) pass(tr *tracer, root int64, keep bool) (*pass, error) {
	p := newPass()
	kept := &convergeKept{}
	byFamily := map[string][]float64{}
	for _, in := range b.inputs {
		t0 := time.Now()
		g := in.start.Clone()
		tr.record(root, "graph", "clone", t0, time.Now())
		rt := timedRun(tr, root, keep, b.config(in), func(cfg dynamics.Config) dynamics.Result { return b.runner.Run(g, cfg) })
		addRun(p, rt)
		byFamily[in.family] = append(byFamily[in.family], ms(rt.total))
		kept.runs = append(kept.runs, rt)
		kept.finals = append(kept.finals, g)
	}
	for f, xs := range byFamily {
		p.layer["dynamics.run_ms."+f] = median(xs)
	}
	dynLayer(p, kept.runs)
	if keep {
		p.kept = kept
	}
	return p, nil
}

func (b *convergeBench) verify(tr *tracer, root int64, p *pass) ([]string, map[string]float64) {
	kept := p.kept.(*convergeKept)
	layer := map[string]float64{"gen.input_ms": median(b.genMs), "dynamics.stable_ms": 0}
	var fails []string
	var costs []float64
	for i, in := range b.inputs {
		name := fmt.Sprintf("%s run %d", in.family, i)
		fails = append(fails, replay(tr, root, name, in.start.Clone(), kept.finals[i], in.game(), kept.runs[i], layer, &costs)...)
	}
	layer["game.cost_us"] = median(costs)
	return fails, layer
}

func (b *convergeBench) close() {}
