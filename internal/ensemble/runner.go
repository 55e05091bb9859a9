package ensemble

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ncg/internal/dynamics"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/rng"
)

// Options override a scenario's defaults and shape the execution.
type Options struct {
	// Ns overrides the agent-count grid (nil: scenario default).
	Ns []int
	// Trials overrides the per-n trial count (0: scenario default).
	Trials int
	// Seed overrides the base seed (0: scenario default).
	Seed int64
	// Workers is the size of the shard worker pool (0: GOMAXPROCS). The
	// worker count never changes results, only wall-clock time.
	Workers int
	// ShardSize is the number of consecutive trials a worker claims at
	// once (0: an automatic size targeting a few shards per worker). The
	// shard size never changes results.
	ShardSize int
	// ProbeWorkers fans each run's happiness probes, and in landmark mode
	// the mover's survivor re-scoring, over a worker pool (see
	// dynamics.Config.Workers). Trial-level parallelism saturates cores
	// at small n; trade it for in-run parallelism at large n.
	ProbeWorkers int
	// Done holds trials already executed (loaded from a partial JSONL
	// checkpoint); they are folded into the summary from their recorded
	// results and not re-run or re-emitted to sinks.
	Done *Checkpoint
	// Context, if non-nil, cancels the run between trials: in-flight
	// shards stop at their next trial boundary, everything already
	// ordered is flushed to the sinks, and Execute returns the context's
	// error — the JSONL file left behind is a maximal resumable
	// checkpoint. The graceful-shutdown seam of the cmds routes
	// SIGINT/SIGTERM here.
	Context context.Context
}

// Aggregate summarizes the trials of one agent count.
type Aggregate struct {
	N          int
	Trials     int
	Converged  int
	Cycled     int
	SumSteps   int64
	MinSteps   int
	MaxSteps   int
	TotalMoves [4]int // by game.MoveKind
}

// AvgSteps returns the mean step count over the aggregated trials.
func (a Aggregate) AvgSteps() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.SumSteps) / float64(a.Trials)
}

// add folds one trial record into the aggregate.
func (a *Aggregate) add(rec Record) {
	a.Trials++
	if rec.Converged {
		a.Converged++
	}
	if rec.Cycled {
		a.Cycled++
	}
	a.SumSteps += int64(rec.Steps)
	if rec.Steps > a.MaxSteps {
		a.MaxSteps = rec.Steps
	}
	if rec.Steps < a.MinSteps {
		a.MinSteps = rec.Steps
	}
	for k, c := range rec.Moves {
		a.TotalMoves[k] += c
	}
}

// Summary is the aggregated outcome of an ensemble run: one Aggregate per
// agent count, in grid order.
type Summary struct {
	Scenario   string
	Ns         []int
	Aggregates []Aggregate
}

// trialExec is the per-worker execution arena: a dynamics.Runner holding
// engine scratches, the distance cache and move buffers across trials, and
// a reseedable RNG for the initial-network generators. One arena serves
// every trial a worker claims, so a sweep's steady state stops allocating
// per trial.
type trialExec struct {
	dyn *dynamics.Runner
	rng *gen.Rand
}

func newTrialExec() *trialExec {
	return &trialExec{dyn: dynamics.NewRunner(), rng: gen.NewRand(0)}
}

// runTrial executes one seeded trial. The seed stream of a trial depends
// only on (base seed, n, trial), never on sharding, scheduling or arena
// reuse, which is what makes ensemble runs bit-identical at any worker
// count.
func runTrial(sc Scenario, n, trial int, base int64, probeWorkers int, ex *trialExec) Record {
	seed := rng.Seed(base, uint64(n), uint64(trial))
	ex.rng.Seed(seed)
	// The backend choice never touches the seed stream: NewSparse consumes
	// r exactly like NewInitial, and converting a dense draw reads no
	// randomness, so records are bit-identical across backends.
	var g graph.Store
	if sc.Backend.Resolve(n, sc.Oracle) == dynamics.BackendSparse {
		if sc.NewSparse != nil {
			g = sc.NewSparse(n, ex.rng)
		} else {
			g = graph.NewSparseFrom(sc.NewInitial(n, ex.rng))
		}
	} else {
		g = sc.NewInitial(n, ex.rng)
	}
	res := ex.dyn.Run(g, dynamics.Config{
		Game:         sc.NewGame(n),
		Policy:       sc.Policy.Policy(),
		Tie:          sc.Tie,
		MaxSteps:     sc.MaxSteps,
		Seed:         seed + 1,
		Workers:      probeWorkers,
		Schedule:     sc.Schedule,
		DetectCycles: sc.DetectCycles,
		Oracle:       sc.Oracle,
		Backend:      sc.Backend,
	})
	return Record{
		Scenario:  sc.Name,
		N:         n,
		Trial:     trial,
		Seed:      seed,
		Steps:     res.Steps,
		Converged: res.Converged,
		Cycled:    res.Cycled,
		Moves:     res.MoveKinds,
	}
}

// flusher is implemented by sinks that can push buffered records to their
// backing store; Execute flushes after every emitted shard so an
// interrupted run leaves a maximal resumable checkpoint.
type flusher interface {
	Flush() error
}

// shard is a claimable range of trials of one agent count.
type shard struct {
	nIdx   int
	lo, hi int
}

// shardOut is a finished shard: records in trial order, resumed ones
// marked so they are aggregated but not re-emitted. truncated marks a
// shard cut short by another shard's failure; its records are a valid
// prefix of the shard but sink emission must stop there.
type shardOut struct {
	recs      []Record
	resumed   []bool
	err       error
	truncated bool
}

// Execute runs every trial of the scenario, sharding the trial ranges over
// a worker pool, and streams the records to the sinks in deterministic
// (n, trial) order. It closes every sink before returning. Results —
// summary and sink output — are bit-identical for any Workers and
// ShardSize; a checkpoint in opt.Done resumes a partial run, re-running
// only the missing trials.
func Execute(sc Scenario, opt Options, sinks ...Sink) (Summary, error) {
	sum, err := execute(sc, opt, sinks)
	for _, s := range sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return sum, err
}

func execute(sc Scenario, opt Options, sinks []Sink) (Summary, error) {
	if err := sc.validate(); err != nil {
		return Summary{}, err
	}
	ns := opt.Ns
	if len(ns) == 0 {
		ns = sc.Ns
	}
	trials := opt.Trials
	if trials <= 0 {
		trials = sc.Trials
	}
	base := opt.Seed
	if base == 0 {
		base = sc.Seed
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if sc.CheckN != nil {
		for _, n := range ns {
			if err := sc.CheckN(n); err != nil {
				return Summary{}, fmt.Errorf("ensemble: scenario %q: %v", sc.Name, err)
			}
		}
	}
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		// Target a few shards per worker and n for load balance.
		shardSize = trials / (4 * workers)
		if shardSize < 1 {
			shardSize = 1
		}
	}

	// A checkpoint from a different grid or trial count would leave its
	// extra records stranded in the output file (never enumerated, never
	// aggregated) — reject it up front; per-record scenario/seed mismatch
	// is caught during execution.
	if n, trial, ok := opt.Done.outside(ns, trials); ok {
		return Summary{}, fmt.Errorf("ensemble: checkpoint record n=%d trial=%d lies outside this run's grid; resume with the original ns/trials", n, trial)
	}

	var shards []shard
	for ni := range ns {
		for lo := 0; lo < trials; lo += shardSize {
			hi := lo + shardSize
			if hi > trials {
				hi = trials
			}
			shards = append(shards, shard{nIdx: ni, lo: lo, hi: hi})
		}
	}

	sum := Summary{Scenario: sc.Name, Ns: ns, Aggregates: make([]Aggregate, len(ns))}
	for i, n := range ns {
		sum.Aggregates[i] = Aggregate{N: n, MinSteps: int(^uint(0) >> 1)}
	}

	// Workers claim shard indices; the collector receives finished shards
	// out of order and replays them to the sinks strictly in shard (hence
	// (n, trial)) order.
	var abort atomic.Bool
	if ctx := opt.Context; ctx != nil {
		// Cancellation flips the same abort latch a shard failure uses:
		// workers stop at their next trial boundary and the emit loop
		// flushes the ordered prefix, leaving a maximal resumable file.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				abort.Store(true)
			case <-watchDone:
			}
		}()
	}
	runShard := func(sh shard, ex *trialExec) shardOut {
		out := shardOut{
			recs:    make([]Record, 0, sh.hi-sh.lo),
			resumed: make([]bool, 0, sh.hi-sh.lo),
		}
		n := ns[sh.nIdx]
		for t := sh.lo; t < sh.hi; t++ {
			if abort.Load() {
				out.truncated = true
				return out
			}
			if opt.Done != nil {
				if rec, ok := opt.Done.record(n, t); ok {
					if rec.Scenario != sc.Name || rec.Seed != rng.Seed(base, uint64(n), uint64(t)) {
						out.err = fmt.Errorf("ensemble: checkpoint record n=%d trial=%d is from scenario %q seed %d, not this run", n, t, rec.Scenario, rec.Seed)
						return out
					}
					out.recs = append(out.recs, rec)
					out.resumed = append(out.resumed, true)
					continue
				}
			}
			rec, err := safeTrial(sc, n, t, base, opt.ProbeWorkers, ex)
			if err != nil {
				out.err = err
				return out
			}
			out.recs = append(out.recs, rec)
			out.resumed = append(out.resumed, false)
		}
		return out
	}

	next := make(chan int)
	finished := make(chan int, workers)
	pending := make([]*shardOut, len(shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	go func() {
		for i := range shards {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := newTrialExec()
			for i := range next {
				out := runShard(shards[i], ex)
				if out.err != nil {
					abort.Store(true)
				}
				mu.Lock()
				pending[i] = &out
				mu.Unlock()
				finished <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()

	// Replay finished shards to the sinks strictly in shard order as they
	// become available, so a long run streams records (and an interrupted
	// one leaves a resumable prefix) instead of buffering everything.
	var firstErr error
	stopSinks := false
	nextEmit := 0
	emitReady := func() {
		for nextEmit < len(shards) {
			mu.Lock()
			out := pending[nextEmit]
			mu.Unlock()
			if out == nil {
				return
			}
			for j, rec := range out.recs {
				sum.Aggregates[shards[nextEmit].nIdx].add(rec)
				if out.resumed[j] || stopSinks || firstErr != nil {
					continue
				}
				for _, s := range sinks {
					if err := s.Write(rec); err != nil && firstErr == nil {
						firstErr = err
						abort.Store(true)
					}
				}
			}
			// Stop sink output at the first failed or truncated shard: its
			// records still precede the cut, but emitting anything after it
			// would leave an interior gap that a checkpoint resume could
			// not fill in order.
			if firstErr != nil || out.err != nil || out.truncated {
				stopSinks = true
			}
			if out.err != nil && firstErr == nil {
				firstErr = out.err
			}
			for _, s := range sinks {
				if f, ok := s.(flusher); ok {
					if err := f.Flush(); err != nil && firstErr == nil {
						firstErr = err
						abort.Store(true)
					}
				}
			}
			nextEmit++
		}
	}
	for range finished {
		emitReady()
	}
	emitReady()
	for i := range sum.Aggregates {
		if sum.Aggregates[i].Trials == 0 {
			sum.Aggregates[i].MinSteps = 0
		}
	}
	if firstErr == nil && opt.Context != nil {
		// Report cancellation even though the partial stream is valid, so
		// callers distinguish "interrupted, resume later" from a
		// completed run.
		firstErr = opt.Context.Err()
	}
	if firstErr != nil {
		return sum, firstErr
	}
	return sum, nil
}

// safeTrial runs one trial, converting generator or game panics (e.g. an
// infeasible n for a budget ensemble) into errors so a bad grid fails the
// run instead of crashing the pool.
func safeTrial(sc Scenario, n, trial int, base int64, probeWorkers int, ex *trialExec) (rec Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ensemble: scenario %q n=%d trial=%d: %v", sc.Name, n, trial, r)
		}
	}()
	return runTrial(sc, n, trial, base, probeWorkers, ex), nil
}
