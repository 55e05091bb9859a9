package main

import (
	"fmt"
	"time"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// landmark-n8192: the CI million-agent smoke scaled down. SUM-SG
// best-response steps on sparse CSR starts with the landmark oracle,
// min-index policy, two workers. A pass takes the first step on each of
// landmarkStarts starts drawn from the seed: later steps on one start
// cost 1.4-4.3 s depending on the start, so three steps on one start
// made a run's time depend on the seed far more than on the code, while
// first steps on independent starts average out.
const (
	landmarkN      = 8192
	landmarkExtra  = 1024
	landmarkK      = 16
	landmarkStarts = 3
)

type landmarkBench struct {
	seed  int64
	genMs []float64
}

// start draws input network i. Sparse stores have no Clone, so every
// run draws its own copy from the same seed.
func (b *landmarkBench) start(i int) (*graph.Sparse, error) {
	return gen.SparseCSR(landmarkN, landmarkExtra, gen.NewRand(gen.Seed(b.seed, uint64(i))))
}

func (b *landmarkBench) setup(seed int64) error {
	b.seed = seed
	t0 := time.Now()
	for i := 0; i < landmarkStarts; i++ {
		if _, err := b.start(i); err != nil {
			return err
		}
	}
	b.genMs = append(b.genMs, ms(time.Since(t0)))
	return nil
}

func (b *landmarkBench) config(i int) dynamics.Config {
	return dynamics.Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   dynamics.MinIndex{},
		Seed:     gen.Seed(b.seed, uint64(i)),
		Workers:  2,
		MaxSteps: 1,
		Oracle:   dynamics.OracleSpec{Mode: dynamics.OracleLandmark, K: landmarkK},
		Backend:  dynamics.BackendSparse,
	}
}

// landmarkKept is what the first pass retains for the replay check.
type landmarkKept struct {
	runs   []*runTrace
	finals []*graph.Sparse
}

func (b *landmarkBench) reference() error { return nil }

// pass draws fresh starts and takes the first step on each.
func (b *landmarkBench) pass(tr *tracer, root int64, keep bool) (*pass, error) {
	p := newPass()
	kept := &landmarkKept{}
	for i := 0; i < landmarkStarts; i++ {
		t0 := time.Now()
		g, err := b.start(i)
		if err != nil {
			return nil, err
		}
		tr.record(root, "gen", "sparse-csr", t0, time.Now())
		rt := timedRun(tr, root, keep, b.config(i), func(cfg dynamics.Config) dynamics.Result { return dynamics.Run(g, cfg) })
		addRun(p, rt)
		kept.runs = append(kept.runs, rt)
		kept.finals = append(kept.finals, g)
	}
	dynLayer(p, kept.runs)
	if keep {
		p.kept = kept
	}
	return p, nil
}

func (b *landmarkBench) verify(tr *tracer, root int64, p *pass) ([]string, map[string]float64) {
	kept := p.kept.(*landmarkKept)
	layer := map[string]float64{"gen.input_ms": median(b.genMs), "dynamics.stable_ms": 0}
	var fails []string
	var costs []float64
	for i, rt := range kept.runs {
		start, err := b.start(i)
		if err != nil {
			return append(fails, "redrawing a start: "+err.Error()), layer
		}
		fails = append(fails, replay(tr, root, fmt.Sprintf("landmark run %d", i), start, kept.finals[i], game.NewSwap(game.Sum), rt, layer, &costs)...)
	}
	layer["game.cost_us"] = median(costs)
	return fails, layer
}

func (b *landmarkBench) close() {}
