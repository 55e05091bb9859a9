package dynamics

import (
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// Cache-construction benchmarks: the all-pairs distance matrix build that
// opens every engine run, on the paper's budget-3 initial ensembles. The
// BFS variants are the pre-kernel baseline (one single-source search per
// row); CacheBuild* is the batched bit-parallel kernel, and the Workers
// variant shards source groups over a pool, as engines with Workers > 1
// do. BenchmarkCacheBuild256 is part of the CI performance trajectory.
func benchCacheBuild(b *testing.B, n, shards int, perSource bool) {
	g := gen.BudgetNetwork(n, 3, gen.NewRand(1))
	c := newCostCacheShell(n)
	var par []*graph.BatchBFSScratch
	for i := 0; i < shards; i++ {
		par = append(par, graph.NewBatchBFSScratch(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perSource {
			for u := 0; u < n; u++ {
				c.refreshRow(g, u)
			}
		} else {
			c.build(g, par)
		}
	}
}

func BenchmarkCacheBuildBFS64(b *testing.B)  { benchCacheBuild(b, 64, 0, true) }
func BenchmarkCacheBuild64(b *testing.B)     { benchCacheBuild(b, 64, 0, false) }
func BenchmarkCacheBuildBFS128(b *testing.B) { benchCacheBuild(b, 128, 0, true) }
func BenchmarkCacheBuild128(b *testing.B)    { benchCacheBuild(b, 128, 0, false) }
func BenchmarkCacheBuildBFS256(b *testing.B) { benchCacheBuild(b, 256, 0, true) }
func BenchmarkCacheBuild256(b *testing.B)    { benchCacheBuild(b, 256, 0, false) }
func BenchmarkCacheBuildBFS512(b *testing.B) { benchCacheBuild(b, 512, 0, true) }
func BenchmarkCacheBuild512(b *testing.B)    { benchCacheBuild(b, 512, 0, false) }

func BenchmarkCacheBuildWorkers4x256(b *testing.B) { benchCacheBuild(b, 256, 4, false) }
func BenchmarkCacheBuildWorkers4x512(b *testing.B) { benchCacheBuild(b, 512, 4, false) }

// BenchmarkCostCacheUpdate256 replays the moves of one SUM-ASG max-cost
// run at n=256 (budget-3 start, seed 1) through costCache.update: the
// cache upkeep that follows every step of the exact engine. Each iteration
// restores the start network and its matrix untimed, then times applying
// the moves and folding them into the cache.
func BenchmarkCostCacheUpdate256(b *testing.B) {
	const n = 256
	start := gen.BudgetNetwork(n, 3, gen.NewRand(1))
	var moves []game.Move
	Run(start.Clone(), Config{
		Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Seed: 1,
		OnStep: func(_, _ int, mv game.Move, _ graph.Store) { moves = append(moves, mv.Clone()) },
	})
	base := newCostCache(start)
	c := newCostCacheShell(n)
	g := start.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.CopyFrom(start)
		copy(c.d, base.d)
		copy(c.sum, base.sum)
		copy(c.ecc, base.ecc)
		copy(c.reached, base.reached)
		b.StartTimer()
		for _, mv := range moves {
			game.ApplyMove(g, mv)
			c.update(g, mv)
		}
	}
	b.ReportMetric(float64(len(moves)), "moves/op")
}

// TestCacheBuildShardedMatchesSerial pins the sharded build to the serial
// one bit for bit, across shard counts and a size that is not a multiple
// of 64.
func TestCacheBuildShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{65, 200, 256} {
		g := gen.BudgetNetwork(n, 3, gen.NewRand(9))
		want := newCostCacheShell(n)
		want.build(g, nil)
		for _, shards := range []int{2, 3, 8} {
			var par []*graph.BatchBFSScratch
			for i := 0; i < shards; i++ {
				par = append(par, graph.NewBatchBFSScratch(n))
			}
			got := newCostCacheShell(n)
			got.build(g, par)
			for i := range want.d {
				if got.d[i] != want.d[i] {
					t.Fatalf("n=%d shards=%d: matrix entry %d differs", n, shards, i)
				}
			}
			for u := 0; u < n; u++ {
				if got.sum[u] != want.sum[u] || got.ecc[u] != want.ecc[u] || got.reached[u] != want.reached[u] {
					t.Fatalf("n=%d shards=%d: aggregates of %d differ", n, shards, u)
				}
			}
		}
	}
}

// TestEngineParallelCacheBuild runs an engine-driven process with several
// probe workers (which also shards the cache build) and checks the trace
// equals the single-worker engine run.
func TestEngineParallelCacheBuild(t *testing.T) {
	mk := func() *graph.Graph { return gen.BudgetNetwork(130, 3, gen.NewRand(3)) }
	cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Tie: TieFirst, Seed: 11, MaxSteps: 60}
	g1 := mk()
	want := Run(g1, cfg)
	cfgW := cfg
	cfgW.Workers = 4
	g2 := mk()
	got := Run(g2, cfgW)
	if got.Steps != want.Steps || got.Converged != want.Converged || !g1.Equal(g2) {
		t.Fatalf("parallel-build run diverged: %+v vs %+v", got, want)
	}
}
