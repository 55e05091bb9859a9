// Command ncgtrace runs a single network creation process and prints every
// move. Without flags it reproduces Figure 1 of the paper: the MAX Swap
// Game on the path P9 under the max cost policy with smallest-index
// tie-breaking, which converges to a star.
//
// Usage:
//
//	ncgtrace [-n 9] [-game max-sg] [-alpha-num 1 -alpha-den 1]
//	         [-policy maxcost] [-init path] [-seed 1] [-backend auto]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ncg/internal/cli"
	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

const usage = `ncgtrace — trace a single network creation process step by step

Usage:
  ncgtrace [-n 9] [-game max-sg] [-alpha-num 1 -alpha-den 1]
           [-policy maxcost-det] [-init path] [-k 1] [-seed 1]
           [-schedule sequential] [-oracle auto]

Games:     sum-sg, max-sg, sum-asg, max-asg, sum-gbg, max-gbg.
Policies:  maxcost, maxcost-det, random.
Schedules: sequential, rounds, rounds-shuffled, rounds-skip, rounds-reject
           (round schedules trace simultaneous moves and detect cycles).
Oracles:   auto, exact, landmark, landmark:k — the distance oracle of the
           swap-game scans; landmark traces are bit-identical to exact.
Backends:  auto, dense, sparse — the adjacency representation (bitset
           matrix or CSR lists); traces are bit-identical either way, and
           auto pairs sparse with landmark-mode runs.
Initial networks: path, cycle, random-tree, budget-k (budget via -k).
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app wraps the shared CLI scaffolding (internal/cli): Fail/Errorf abort
// with the right exit code from any depth while run stays testable.
type app struct {
	*cli.App
}

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("ncgtrace", usage, stdout, stderr, func(ca *cli.App) {
		(&app{ca}).main(args)
	})
}

func (a *app) main(args []string) {
	fs := flag.NewFlagSet("ncgtrace", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	n := fs.Int("n", 9, "number of agents")
	gameName := fs.String("game", "max-sg", "game: sum-sg, max-sg, sum-asg, max-asg, sum-gbg, max-gbg")
	alphaNum := fs.Int64("alpha-num", 1, "edge price numerator (buy games)")
	alphaDen := fs.Int64("alpha-den", 1, "edge price denominator")
	policyName := fs.String("policy", "maxcost-det", "policy: maxcost, maxcost-det, random")
	initName := fs.String("init", "path", "initial network: path, cycle, random-tree, budget-k (k via -k)")
	k := fs.Int("k", 1, "budget for -init budget-k")
	seed := fs.Int64("seed", 1, "seed for random choices")
	scheduleName := fs.String("schedule", "sequential", "activation schedule: sequential or a rounds variant")
	oracleName := fs.String("oracle", "auto", "distance oracle: auto, exact, landmark, landmark:k")
	backendName := fs.String("backend", "auto", "adjacency backend: auto, dense, sparse")
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	if *n < 1 {
		a.Fail("-n must be >= 1, got %d", *n)
	}
	if *alphaDen <= 0 {
		a.Fail("-alpha-den must be positive, got %d", *alphaDen)
	}
	sched, ok := dynamics.ScheduleByName(*scheduleName)
	if !ok {
		a.Fail("unknown schedule %q (schedules: %s)", *scheduleName, strings.Join(dynamics.ScheduleNames(), ", "))
	}
	oracle, err := dynamics.ParseOracleSpec(*oracleName)
	if err != nil {
		a.Fail("%v", err)
	}
	backend, err := dynamics.ParseBackendSpec(*backendName)
	if err != nil {
		a.Fail("%v", err)
	}

	var gm game.Game
	alpha := game.NewAlpha(*alphaNum, *alphaDen)
	switch *gameName {
	case "sum-sg":
		gm = game.NewSwap(game.Sum)
	case "max-sg":
		gm = game.NewSwap(game.Max)
	case "sum-asg":
		gm = game.NewAsymSwap(game.Sum)
	case "max-asg":
		gm = game.NewAsymSwap(game.Max)
	case "sum-gbg":
		gm = game.NewGreedyBuy(game.Sum, alpha)
	case "max-gbg":
		gm = game.NewGreedyBuy(game.Max, alpha)
	default:
		a.Fail("unknown game %q", *gameName)
	}

	var pol dynamics.Policy
	tie := dynamics.TieFirst
	switch *policyName {
	case "maxcost":
		pol = dynamics.MaxCost{}
		tie = dynamics.TieRandom
	case "maxcost-det":
		pol = dynamics.MaxCostDeterministic{}
	case "random":
		pol = dynamics.Random{}
		tie = dynamics.TieRandom
	default:
		a.Fail("unknown policy %q", *policyName)
	}

	var g *graph.Graph
	r := gen.NewRand(*seed)
	switch *initName {
	case "path":
		g = graph.Path(*n)
	case "cycle":
		if *n < 3 {
			a.Fail("-init cycle needs -n >= 3, got %d", *n)
		}
		g = graph.Cycle(*n)
	case "random-tree":
		g = gen.RandomTree(*n, r)
	case "budget-k":
		// Validate before the generator's internal-invariant panic.
		if err := gen.ValidateBudget(*n, *k); err != nil {
			a.Fail("%v", err)
		}
		g = gen.BudgetNetwork(*n, *k, r)
	default:
		a.Fail("unknown init %q", *initName)
	}

	// Interrupt seam: the trace stops at the next step boundary (round
	// boundary under a rounds schedule), prints the summary of the prefix
	// it played, and exits 130 — never a mid-line kill.
	ctx, stop := cli.SignalContext(a.Stderr, "ncgtrace")
	defer stop()

	_, rounds := sched.(dynamics.Rounds)
	// The backend choice changes the mutated representation, never the
	// trace: both backends enumerate neighbours in the same order.
	work := backend.Materialize(g, oracle)
	fmt.Fprintf(a.Stdout, "initial: %v\n", work)
	res := dynamics.Run(work, dynamics.Config{
		Game:     gm,
		Policy:   pol,
		Tie:      tie,
		Seed:     *seed,
		Schedule: sched,
		Oracle:   oracle,
		Cancel:   ctx.Done(),
		// Round schedules can oscillate even in sequentially convergent
		// games; detect the repeat instead of tracing to the step bound.
		DetectCycles: rounds,
		OnStep: func(step, mover int, mv game.Move, g graph.Store) {
			// Mid-round states of a simultaneous schedule can be transiently
			// disconnected; print "inf" instead of the sentinel distance.
			d := graph.DiameterOf(g)
			diam := fmt.Sprint(d)
			if d >= graph.Unreachable {
				diam = "inf"
			}
			fmt.Fprintf(a.Stdout, "step %3d: %v   -> diameter %s\n", step, mv, diam)
		},
	})
	fmt.Fprintf(a.Stdout, "final:   %v\n", work)
	fmt.Fprintf(a.Stdout, "steps=%d converged=%v star=%v double-star=%v\n",
		res.Steps, res.Converged, graph.IsStarOf(work), graph.IsDoubleStarOf(work))
	if rounds {
		fmt.Fprintf(a.Stdout, "rounds=%d skipped=%d cycled=%v cycle-len=%d\n",
			res.Rounds, res.Skipped, res.Cycled, res.CycleLen)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(a.Stderr, "ncgtrace: interrupted; the trace above is the played prefix")
		cli.Exit(cli.SignalExitCode)
	}
}
