package dynamics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncg/internal/game"
)

// insertionMaxCostOrder is the reference ordering of the max cost policy:
// an insertion sort by descending cost, then descending random tie key,
// with equal keys left in index order.
func insertionMaxCostOrder(n int, cost func(u int) game.Cost, alpha game.Alpha, r *rand.Rand) []int {
	agents := make([]costedAgent, n)
	for u := 0; u < n; u++ {
		agents[u] = costedAgent{u: u, c: cost(u)}
		if r != nil {
			agents[u].tieR = r.Int63()
		}
	}
	for i := 1; i < n; i++ {
		a := agents[i]
		j := i - 1
		for j >= 0 {
			cmp := agents[j].c.Cmp(a.c, alpha)
			if cmp > 0 || (cmp == 0 && agents[j].tieR >= a.tieR) {
				break
			}
			agents[j+1] = agents[j]
			j--
		}
		agents[j+1] = a
	}
	order := make([]int, n)
	for i, a := range agents {
		order[i] = a.u
	}
	return order
}

// insertionMaxCostOrderDeterministic is the reference ordering of the
// deterministic max cost policy: a stable insertion sort by descending cost.
func insertionMaxCostOrderDeterministic(n int, cost func(u int) game.Cost, alpha game.Alpha) []int {
	costs := make([]game.Cost, n)
	order := make([]int, n)
	for u := 0; u < n; u++ {
		costs[u] = cost(u)
		order[u] = u
	}
	for i := 1; i < n; i++ {
		u := order[i]
		j := i - 1
		for j >= 0 && costs[order[j]].Cmp(costs[u], alpha) < 0 {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = u
	}
	return order
}

// fewTiesSource draws tie keys from {0, 1, 2} so that equal keys are
// common among equal costs.
type fewTiesSource struct{ r *rand.Rand }

func (s fewTiesSource) Int63() int64 { return s.r.Int63n(3) }
func (s fewTiesSource) Seed(int64)   {}

// TestMaxCostOrderMatchesInsertionSort: both max cost orderings equal the
// insertion sorts they replaced on tie-heavy costs — a narrow cost range,
// infinite costs, tie keys forced equal, and edge prices under which
// different Halves compare equal or apart — and consume the RNG alike.
func TestMaxCostOrderMatchesInsertionSort(t *testing.T) {
	alphas := []game.Alpha{game.AlphaInt(1), game.NewAlpha(5, 2), game.AlphaInt(4), game.NewAlpha(1, 3)}
	for _, n := range []int{1, 2, 17, 256} {
		for trial := 0; trial < 6; trial++ {
			cr := rand.New(rand.NewSource(int64(n*10 + trial)))
			costs := make([]game.Cost, n)
			for u := range costs {
				costs[u] = game.Cost{Halves: 2 * cr.Int63n(3), Dist: 40 + cr.Int63n(3)}
				if cr.Intn(10) == 0 {
					costs[u].Dist = game.DistInf
				}
			}
			cost := func(u int) game.Cost { return costs[u] }
			for _, alpha := range alphas {
				where := fmt.Sprintf("n=%d trial %d alpha %v", n, trial, alpha)
				if got, want := maxCostOrderDeterministic(n, cost, alpha, nil, nil), insertionMaxCostOrderDeterministic(n, cost, alpha); !slices.Equal(got, want) {
					t.Fatalf("%s: deterministic order %v, want %v", where, got, want)
				}
				sources := []func() *rand.Rand{
					func() *rand.Rand { return nil },
					func() *rand.Rand { return rand.New(rand.NewSource(int64(trial))) },
					func() *rand.Rand { return rand.New(fewTiesSource{rand.New(rand.NewSource(int64(trial)))}) },
				}
				for si, src := range sources {
					rGot, rWant := src(), src()
					got := maxCostOrder(n, cost, alpha, rGot, nil, nil)
					want := insertionMaxCostOrder(n, cost, alpha, rWant)
					if !slices.Equal(got, want) {
						t.Fatalf("%s source %d: order %v, want %v", where, si, got, want)
					}
					if rGot != nil && rGot.Int63() != rWant.Int63() {
						t.Fatalf("%s source %d: RNG streams diverged", where, si)
					}
				}
			}
		}
	}
}

// BenchmarkMaxCostOrder256 orders 256 agents with the max cost policy's
// random tie keys, reusing the engine-side buffers as a run does.
func BenchmarkMaxCostOrder256(b *testing.B) {
	const n = 256
	cr := rand.New(rand.NewSource(1))
	costs := make([]game.Cost, n)
	for u := range costs {
		costs[u] = game.Cost{Halves: 2 * cr.Int63n(4), Dist: 700 + cr.Int63n(40)}
	}
	cost := func(u int) game.Cost { return costs[u] }
	alpha := game.AlphaInt(n / 4)
	r := rand.New(rand.NewSource(2))
	agents := make([]costedAgent, n)
	ord := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxCostOrder(n, cost, alpha, r, agents, ord)
	}
}
