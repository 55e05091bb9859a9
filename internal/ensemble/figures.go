package ensemble

import (
	"fmt"
	"strings"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// The empirical study of the paper (Sections 3.4 and 4.2): convergence-time
// sweeps of the bounded-budget Asymmetric Swap Game (Figures 7 and 8) and
// of the Greedy Buy Game (Figures 11-14), under the max cost and random
// policies. A figure is a title plus a list of series; every series is a
// Scenario run by one Execute over the whole grid, so figures inherit the
// spine's per-trial seed streams and worker-count invariance.

// FigureOptions scale a figure regeneration. The paper uses 10000 trials
// (ASG) and 5000 trials (GBG) on n = 10..100; the defaults are reduced so
// the whole suite runs in minutes. All conclusions are about curve
// shapes, which are stable at these counts.
type FigureOptions struct {
	Ns      []int
	Trials  int
	Seed    int64
	Workers int
}

// DefaultFigureOptions returns the scaled-down defaults.
func DefaultFigureOptions() FigureOptions {
	return FigureOptions{
		Ns:     []int{10, 20, 30, 40, 50},
		Trials: 60,
		Seed:   1,
	}
}

// FigureResult is a regenerated figure: one Summary per series over the
// n-grid, named by the series' scenario.
type FigureResult struct {
	Name   string
	Ns     []int
	Series []Summary
}

// Render returns the avg-steps and max-steps tables of the figure (the
// left and right panels of the paper's figures).
func (fr FigureResult) Render() string {
	return fr.Name + "\n\nAvg # of steps until convergence\n" +
		fr.table(Aggregate.AvgSteps) +
		"\nMax # of steps until convergence\n" +
		fr.table(func(a Aggregate) float64 { return float64(a.MaxSteps) })
}

// table renders one metric as an aligned text table, one row per n.
func (fr FigureResult) table(metric func(Aggregate) float64) string {
	var sb strings.Builder
	sb.WriteString("n")
	for _, s := range fr.Series {
		fmt.Fprintf(&sb, "\t%s", s.Scenario)
	}
	sb.WriteString("\n")
	for i, n := range fr.Ns {
		fmt.Fprintf(&sb, "%d", n)
		for _, s := range fr.Series {
			fmt.Fprintf(&sb, "\t%.1f", metric(s.Aggregates[i]))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Bound returns the largest observed ratio max-steps / n across the
// figure, used to check the paper's 5n/7n/8n envelopes.
func (fr FigureResult) Bound() float64 {
	worst := 0.0
	for _, s := range fr.Series {
		for _, a := range s.Aggregates {
			worst = max(worst, float64(a.MaxSteps)/float64(a.N))
		}
	}
	return worst
}

// Figure regenerates the numbered empirical figure (7, 8, 11-14). A grid
// some series cannot draw is a configuration error, reported before any
// trial runs.
func Figure(num int, opt FigureOptions) (FigureResult, error) {
	if opt.Trials < 1 || len(opt.Ns) == 0 {
		return FigureResult{}, fmt.Errorf("ensemble: figure %d needs at least one trial and one agent count, got trials=%d ns=%v", num, opt.Trials, opt.Ns)
	}
	name, series, err := figureSeries(num, opt.Ns)
	if err != nil {
		return FigureResult{}, err
	}
	for _, sc := range series {
		if err := checkGrid(sc.CheckN, opt.Ns); err != nil {
			return FigureResult{}, fmt.Errorf("ensemble: figure %d series %q: %v", num, sc.Name, err)
		}
	}
	fr := FigureResult{Name: name, Ns: opt.Ns}
	for _, sc := range series {
		sc.Ns, sc.Trials, sc.Seed = opt.Ns, opt.Trials, opt.Seed
		sum, err := Execute(sc, Options{Workers: opt.Workers})
		if err != nil {
			return FigureResult{}, err
		}
		fr.Series = append(fr.Series, sum)
	}
	return fr, nil
}

// checkGrid returns the first rejection of an agent count in ns by check
// (nil check: every n is drawable).
func checkGrid(check func(int) error, ns []int) error {
	if check == nil {
		return nil
	}
	for _, n := range ns {
		if err := check(n); err != nil {
			return err
		}
	}
	return nil
}

// figureSeries returns the title and series of the numbered figure.
func figureSeries(num int, ns []int) (string, []Scenario, error) {
	switch num {
	case 7:
		return "Figure 7: SUM-ASG, budget k", asgSeries(game.Sum, ns), nil
	case 8:
		return "Figure 8: MAX-ASG, budget k", asgSeries(game.Max, ns), nil
	case 11:
		return "Figure 11: SUM-GBG", gbgSeries(game.Sum), nil
	case 12:
		return "Figure 12: SUM-GBG topologies", topologySeries(game.Sum), nil
	case 13:
		return "Figure 13: MAX-GBG", gbgSeries(game.Max), nil
	case 14:
		return "Figure 14: MAX-GBG topologies", topologySeries(game.Max), nil
	}
	return "", nil, fmt.Errorf("ensemble: no experiment for figure %d (theory figures are verified by the cycles package)", num)
}

// figurePolicies are the two policies of Section 3.4.1 every figure
// compares.
var figurePolicies = []PolicyKind{MaxCost, Random}

// asgSeries are the budget-k ASG series of Figures 7 and 8. A budget-k
// series is left out when some n of the grid has n <= 2k, which the
// budget ensemble cannot draw.
func asgSeries(kind game.DistKind, ns []int) []Scenario {
	var out []Scenario
	for _, pol := range figurePolicies {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 10} {
			if checkGrid(budgetCheck(k), ns) != nil {
				continue
			}
			out = append(out, Scenario{
				Name:       fmt.Sprintf("k=%d %s", k, pol),
				Family:     FamilyAsymSwap,
				NewGame:    func(int) game.Game { return game.NewAsymSwap(kind) },
				NewInitial: budget(k),
				CheckN:     budgetCheck(k),
				Policy:     pol,
			})
		}
	}
	return out
}

// figureAlpha is an edge price alpha = n/den of Section 4.2.
type figureAlpha struct {
	name string
	den  int64
}

// gbgSeries are the series of Figures 11 and 13: random connected
// networks with m in {n, 4n} at alpha in {n/10, n/4, n}.
func gbgSeries(kind game.DistKind) []Scenario {
	var out []Scenario
	for _, pol := range figurePolicies {
		for _, mMul := range []int{1, 4} {
			for _, al := range []figureAlpha{{"a=n/10", 10}, {"a=n/4", 4}, {"a=n", 1}} {
				out = append(out, Scenario{
					Name:       fmt.Sprintf("m=%dn %s %s", mMul, al.name, pol),
					Family:     FamilyGreedyBuy,
					NewGame:    gbg(kind, al.den),
					NewInitial: randomConn(mMul),
					CheckN:     randomConnCheck(mMul),
					Policy:     pol,
				})
			}
		}
	}
	return out
}

// topologySeries are the series of Figures 12 and 14: the Section 4.2.2
// starting topologies (random m=n, rl, dl) at alpha in {n/10, n/4, n/2, n}.
func topologySeries(kind game.DistKind) []Scenario {
	topologies := []struct {
		name    string
		initial func(n int, r *gen.Rand) *graph.Graph
		check   func(n int) error
	}{
		{"random", randomConn(1), randomConnCheck(1)},
		{"rl", randomLine, nil},
		{"dl", directedLine, nil},
	}
	var out []Scenario
	for _, pol := range figurePolicies {
		for _, topo := range topologies {
			for _, al := range []figureAlpha{{"a=n/10", 10}, {"a=n/4", 4}, {"a=n/2", 2}, {"a=n", 1}} {
				out = append(out, Scenario{
					Name:       fmt.Sprintf("%s %s %s", topo.name, al.name, pol),
					Family:     FamilyGreedyBuy,
					NewGame:    gbg(kind, al.den),
					NewInitial: topo.initial,
					CheckN:     topo.check,
					Policy:     pol,
				})
			}
		}
	}
	return out
}
