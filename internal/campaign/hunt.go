package campaign

import (
	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/graph"
)

// The structured hunt for unit-budget best response cycles (Theorem 3.7 /
// Section 3.3). Uniformly random unit-budget networks essentially never
// cycle (the paper's own simulations, reproduced by the Figure 7/8 sweeps,
// never met one), but the constructions of Figures 5 and 6 share a shape:
// one long cycle with pendant paths. HuntUnitBudgetCycle samples that
// family (CyclePendantSampler) deterministically and searches each
// instance's best-response state graph for a directed cycle.

// HuntResult is a best-response cycle found on a unit-budget network.
type HuntResult struct {
	// Start is the sampled initial network (every agent owns one edge).
	Start *graph.Graph
	// Cycle is a reachable best-response cycle.
	Cycle *cycles.FoundCycle
	// Instance is the sample index the network was derived from.
	Instance int
}

// HuntUnitBudgetCycle searches maxInstances structured unit-budget
// networks for the given ASG distance kind and returns the first one whose
// best-response state graph (capped at stateCap states per instance)
// contains a cycle (nil if none does), together with the number of
// instances actually searched. Degenerate samples never consume the
// instance budget: they are redrawn from fresh derived seeds, so the
// search visits exactly min(maxInstances, instances-until-hit) networks.
// The hunt is a single-cell campaign over the cycle-pendant sampler; its
// result is bit-identical at any worker count. A zero instance budget or
// state cap is the campaign's validation error.
func HuntUnitBudgetCycle(kind game.DistKind, seed int64, maxInstances, stateCap int) (*HuntResult, int, error) {
	return runHunt(kind, seed, maxInstances, stateCap, Options{})
}

// runHunt executes the hunt campaign; opt carries execution shape only
// (workers, shard size) — the search grid comes from the arguments.
func runHunt(kind game.DistKind, seed int64, maxInstances, stateCap int, opt Options) (*HuntResult, int, error) {
	name := "sum-asg"
	if kind == game.Max {
		name = "max-asg"
	}
	variant, _ := VariantByName(name)
	c := Campaign{
		Name:      "hunt-unit-budget",
		Samplers:  []Sampler{CyclePendantSampler()},
		Variants:  []Variant{variant},
		Instances: maxInstances,
		Seed:      seed,
		MaxStates: stateCap,
	}
	opt.MaxHits = 1
	var hit *Record
	sum, err := Run(c, opt, FuncSink(func(rec Record) error {
		if rec.Hit && hit == nil {
			r := rec
			hit = &r
		}
		return nil
	}))
	if err != nil {
		return nil, 0, err
	}
	if hit == nil {
		return nil, sum.Searched, nil
	}
	start, err := hit.DecodeStart()
	if err != nil {
		return nil, sum.Searched, err
	}
	fc, err := hit.DecodeCycle()
	if err != nil {
		return nil, sum.Searched, err
	}
	return &HuntResult{Start: start, Cycle: fc, Instance: hit.Instance}, sum.Searched, nil
}
