// Package ncg is a from-scratch Go implementation of the network creation
// game dynamics studied by Kawald & Lenzner, "On Dynamics in Selfish
// Network Creation" (SPAA 2013): the Swap Game, Asymmetric Swap Game,
// Greedy Buy Game, Buy Game and bilateral equal-split Buy Game, played as
// sequential-move processes under configurable move policies, together
// with the paper's best-response-cycle constructions, non-weak-acyclicity
// analyses and empirical convergence-time study.
//
// The facade re-exports the core types of the internal packages so
// downstream users can build and run processes without importing
// internals:
//
//	g := ncg.Path(9)
//	res := ncg.Run(g, ncg.ProcessConfig{
//		Game:   ncg.NewMaxSwapGame(),
//		Policy: ncg.MaxCostPolicy(),
//	})
//	fmt.Println(res.Steps, res.Converged)
//
// See the examples directory for richer scenarios and the cmd directory
// for the figure-regeneration tools.
package ncg

import (
	"ncg/internal/campaign"
	"ncg/internal/coord"
	"ncg/internal/cycles"
	"ncg/internal/dynamics"
	"ncg/internal/ensemble"
	"ncg/internal/experiments"
	"ncg/internal/faultinject"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/hunt"
	"ncg/internal/jsonl"
	"ncg/internal/quality"
	"ncg/internal/search"
)

// Core graph types.
type (
	// Graph is an undirected network with an edge-ownership function.
	Graph = graph.Graph
	// Edge is an owned edge (U owns it).
	Edge = graph.Edge
	// Rand is the deterministic random source the generators consume.
	Rand = gen.Rand
)

// Graph constructors.
var (
	NewGraph      = graph.New
	FromEdges     = graph.FromEdges
	Path          = graph.Path
	Cycle         = graph.Cycle
	Star          = graph.Star
	DoubleStar    = graph.DoubleStar
	Complete      = graph.Complete
	CompleteMinus = graph.CompleteMinus
	Isomorphic    = graph.Isomorphic
)

// Game types and cost model.
type (
	// Game is a network creation game variant.
	Game = game.Game
	// Alpha is the exact rational edge price.
	Alpha = game.Alpha
	// Cost is an agent's exact cost.
	Cost = game.Cost
	// Move is a strategy change of one agent.
	Move = game.Move
	// DistKind selects SUM or MAX distance cost.
	DistKind = game.DistKind
)

// Distance-cost kinds.
const (
	SUM = game.Sum
	MAX = game.Max
)

// Edge price constructors.
var (
	NewAlpha = game.NewAlpha
	AlphaInt = game.AlphaInt
)

// Move helpers. Moves returned by a game's BestMoves/ImprovingMoves share
// scratch-pooled backing arrays and are valid only until the next
// enumeration on the same scratch; CloneMoves deep-copies a batch a caller
// wants to retain. NaiveGame wraps a game so its scans run the full-BFS
// reference path (for benchmarks and equivalence testing against the
// delta-evaluated engine).
var (
	CloneMoves = game.CloneMoves
	NaiveGame  = game.Naive
)

// NewSumSwapGame returns the SUM Swap Game of Alon et al.
func NewSumSwapGame() Game { return game.NewSwap(game.Sum) }

// NewMaxSwapGame returns the MAX Swap Game.
func NewMaxSwapGame() Game { return game.NewSwap(game.Max) }

// NewAsymSwapGame returns the Asymmetric Swap Game (owner-only swaps).
func NewAsymSwapGame(kind DistKind) Game { return game.NewAsymSwap(kind) }

// NewGreedyBuyGame returns the Greedy Buy Game (buy/delete/swap one edge).
func NewGreedyBuyGame(kind DistKind, alpha Alpha) Game {
	return game.NewGreedyBuy(kind, alpha)
}

// NewBuyGame returns the original Fabrikant et al. Buy Game; best responses
// are computed exhaustively (intended for small n).
func NewBuyGame(kind DistKind, alpha Alpha) Game { return game.NewBuy(kind, alpha) }

// NewBilateralGame returns the Corbo-Parkes bilateral equal-split Buy Game.
func NewBilateralGame(kind DistKind, alpha Alpha) Game {
	return game.NewBilateral(kind, alpha)
}

// Process types.
type (
	// ProcessConfig parameterizes a sequential-move process.
	ProcessConfig = dynamics.Config
	// ProcessResult summarizes a finished process.
	ProcessResult = dynamics.Result
	// Policy selects the moving agent each step.
	Policy = dynamics.Policy
)

// Run executes a network creation process on g (mutating it) and returns
// the summary.
func Run(g *Graph, cfg ProcessConfig) ProcessResult { return dynamics.Run(g, cfg) }

// Activation schedules: ProcessConfig.Schedule selects who moves when. The
// default (nil, or SequentialSchedule) is the paper's one-unhappy-agent-
// per-step process; RoundSchedule plays simultaneous-move rounds where
// every activated agent best-responds against the same pre-round snapshot
// and the responses commit together under a collision policy.
type (
	// Scheduler is the sealed move-activation regime interface.
	Scheduler = dynamics.Scheduler
	// SequentialSchedule is the classical one-agent-per-step schedule.
	SequentialSchedule = dynamics.Sequential
	// RoundSchedule is the simultaneous-move round schedule.
	RoundSchedule = dynamics.Rounds
	// RoundActiveSet selects which agents a round activates.
	RoundActiveSet = dynamics.ActiveSet
	// RoundCollision resolves same-round moves touching a common edge slot.
	RoundCollision = dynamics.Collision
)

// Round activation sets and collision policies.
const (
	ActiveAll       = dynamics.ActiveAll
	ActiveShuffled  = dynamics.ActiveShuffled
	ActivePolicy    = dynamics.ActivePolicy
	FirstWriterWins = dynamics.FirstWriterWins
	SkipOnConflict  = dynamics.SkipOnConflict
	RejectRound     = dynamics.RejectRound
)

var (
	// ScheduleNames lists the registry names accepted by ScheduleByName.
	ScheduleNames = dynamics.ScheduleNames
	// ScheduleByName resolves a registry name to its schedule.
	ScheduleByName = dynamics.ScheduleByName
)

// Distance oracles. ProcessConfig.Oracle selects the distance backend of a
// run: the exact all-pairs cache, or a k-landmark oracle whose bound-based
// candidate filter re-scores surviving moves exactly — trajectories stay
// bit-identical to exact mode at O(kn) oracle memory.
type (
	// OracleSpec selects a run's distance oracle; the zero value is auto.
	OracleSpec = dynamics.OracleSpec
	// OracleMode enumerates the oracle selection modes.
	OracleMode = dynamics.OracleMode
)

// Oracle modes.
const (
	OracleAuto     = dynamics.OracleAuto
	OracleExact    = dynamics.OracleExact
	OracleLandmark = dynamics.OracleLandmark
)

// ParseOracleSpec parses the -oracle flag syntax: "auto" (or empty),
// "exact", "landmark", or "landmark:k".
var ParseOracleSpec = dynamics.ParseOracleSpec

// ProcessRunner executes processes back to back while reusing every heavy
// allocation (engine scratches, the all-pairs distance cache, move
// buffers) across runs; results are identical to Run. Use one per worker
// when sweeping many trials — it is not safe for concurrent use.
type ProcessRunner = dynamics.Runner

// NewProcessRunner returns an empty ProcessRunner; arenas grow on first
// use.
func NewProcessRunner() *ProcessRunner { return dynamics.NewRunner() }

// Stable reports whether g is a pure Nash equilibrium of gm.
func Stable(g *Graph, gm Game) bool { return dynamics.Stable(g, gm) }

// MaxCostPolicy returns the max cost policy of Section 3.4.1.
func MaxCostPolicy() Policy { return dynamics.MaxCost{} }

// RandomPolicy returns the random policy of Section 3.4.1.
func RandomPolicy() Policy { return dynamics.Random{} }

// MaxCostDeterministicPolicy returns the max cost policy with
// smallest-index tie-breaking, the rule of the Theorem 2.11 trace and
// Figure 1.
func MaxCostDeterministicPolicy() Policy { return dynamics.MaxCostDeterministic{} }

// Tie-breaking rules among best moves.
const (
	TieRandom = dynamics.TieRandom
	TieFirst  = dynamics.TieFirst
)

// Generators of the paper's initial-network ensembles.
var (
	// BudgetNetwork builds the Section 3.4.1 bounded-budget ensemble.
	BudgetNetwork = gen.BudgetNetwork
	// RandomConnected builds the Section 4.2.1 m-edge ensemble.
	RandomConnected = gen.RandomConnected
	// RandomTree builds a uniform labeled tree with random ownership.
	RandomTree = gen.RandomTree
	// SparseNetwork builds a connected n-vertex network with extra
	// non-tree edges in O(n + extra) expected time — the large-n
	// counterpart of RandomConnected for landmark-oracle runs.
	// Infeasible parameters return a typed *gen.InfeasibleError.
	SparseNetwork = gen.SparseNetwork
	// SparseCSR is SparseNetwork built directly into the CSR backend,
	// with no dense intermediate — the constructor for networks whose
	// O(n²/8) adjacency matrix does not fit in memory.
	SparseCSR = gen.SparseCSR
	// SparseEdges returns the edge list the sparse builders load.
	SparseEdges = gen.SparseEdges
	// NewRand builds the deterministic random source the generators use.
	NewRand = gen.NewRand
)

// Cycle analysis. Explorations run on an interned state store: every
// distinct network is kept once as a compact canonical encoding, states
// are recognized by an incrementally maintained Zobrist fingerprint with
// byte-exact collision verification, and the frontier expands level by
// level over a worker pool — results are identical at any worker count.
type (
	// CycleInstance is a verified better/best-response cycle.
	CycleInstance = cycles.Instance
	// ReachResult summarizes an exhaustive improving-move exploration.
	ReachResult = cycles.ReachResult
	// ExploreOptions parameterizes Explore (cap, move mode, workers,
	// progress callback).
	ExploreOptions = cycles.ExploreOptions
	// ExploreProgress is the per-level report of a running exploration.
	ExploreProgress = cycles.ExploreProgress
)

var (
	// Explore runs a reachability analysis with explicit options — the
	// parallel form of ExploreImproving/ExploreBestResponse.
	Explore = cycles.Explore
	// ExploreImproving exhaustively explores the improving-move state
	// space (non-weak-acyclicity checks).
	ExploreImproving = cycles.ExploreImproving
	// ExploreBestResponse restricts the exploration to best responses.
	ExploreBestResponse = cycles.ExploreBestResponse
	// FindBestResponseCycle searches the best-response state graph for a
	// directed cycle.
	FindBestResponseCycle = cycles.FindBestResponseCycle
	// SearchBestResponseCycle is FindBestResponseCycle reporting also the
	// number of distinct states searched.
	SearchBestResponseCycle = cycles.SearchBestResponseCycle
	// SearchRoundCycle plays one round-schedule trajectory (the config
	// must carry a RoundSchedule) and returns the cycle it closes, if any,
	// with the number of committed moves.
	SearchRoundCycle = cycles.SearchRoundCycle
)

// PaperCycles returns the verified cycle constructions of the paper, keyed
// by figure.
func PaperCycles() []CycleInstance {
	return []CycleInstance{
		cycles.Fig2MaxSG(),
		cycles.Fig3SumASG(),
		cycles.Fig9SumGBG(),
		cycles.Fig9SumBG(),
		cycles.Fig10MaxGBG(),
		cycles.Fig10MaxBG(),
		cycles.Fig15SumBilateral(),
		cycles.Fig16MaxBilateral(),
	}
}

// Ensemble execution spine: named scenarios (game x alpha schedule x
// policy x tie-break x initial-network ensemble) run as sharded,
// deterministic trial ensembles streaming per-trial records to sinks.
type (
	// Scenario is a named, registrable workload.
	Scenario = ensemble.Scenario
	// ScenarioFamily identifies one of the five game variants.
	ScenarioFamily = ensemble.Family
	// PolicyKind selects a move policy by name.
	PolicyKind = ensemble.PolicyKind
	// EnsembleOptions override scenario defaults and shape execution
	// (grid, trials, seed, workers, shard size, resume checkpoint).
	EnsembleOptions = ensemble.Options
	// EnsembleRecord is the result of one trial, the JSONL record unit.
	EnsembleRecord = ensemble.Record
	// EnsembleSummary aggregates an ensemble run per agent count.
	EnsembleSummary = ensemble.Summary
	// EnsembleAggregate summarizes the trials of one agent count.
	EnsembleAggregate = ensemble.Aggregate
	// RecordSink consumes the per-trial records of an ensemble run.
	RecordSink = ensemble.Sink
	// FuncRecordSink adapts a callback into a RecordSink.
	FuncRecordSink = ensemble.FuncSink
	// Checkpoint holds trials recovered from a partial JSONL file.
	Checkpoint = ensemble.Checkpoint
)

// Policy kinds.
const (
	PolicyMaxCost              = ensemble.MaxCost
	PolicyRandom               = ensemble.Random
	PolicyMaxCostDeterministic = ensemble.MaxCostDeterministic
	PolicyMinIndex             = ensemble.MinIndex
)

var (
	// RegisterScenario adds a scenario to the registry.
	RegisterScenario = ensemble.Register
	// LookupScenario returns a registered scenario by name.
	LookupScenario = ensemble.Lookup
	// Scenarios lists every registered scenario sorted by name.
	Scenarios = ensemble.List
	// RunScenario executes a scenario's trial ensemble over a sharded
	// worker pool, streaming records to the sinks; results are
	// bit-identical at any worker count and shard size.
	RunScenario = ensemble.Execute
	// NewJSONLSink streams records as JSON lines.
	NewJSONLSink = ensemble.NewJSONLSink
	// NewCSVSink streams records as CSV.
	NewCSVSink = ensemble.NewCSVSink
	// LoadCheckpoint parses a (possibly truncated) JSONL record file.
	LoadCheckpoint = ensemble.LoadCheckpoint
	// ResumeJSONL prepares a partial JSONL file for resumption.
	ResumeJSONL = ensemble.ResumeJSONL
)

// Counterexample-hunt campaigns: grids of instance samplers x game
// variants searched for best-response cycles over a sharded worker pool,
// streaming JSONL records (hits carry the canonical start-network encoding
// and the cycle trace) with checkpoint/resume. Results are bit-identical
// at any worker count.
type (
	// Campaign is one named counterexample hunt (samplers x variants grid,
	// instance budget, per-instance state cap).
	Campaign = campaign.Campaign
	// CampaignSampler draws the start networks of one grid axis.
	CampaignSampler = campaign.Sampler
	// CampaignVariant names one game the campaign plays per instance.
	CampaignVariant = campaign.Variant
	// CampaignOptions override campaign defaults and shape execution
	// (budget, seed, cap, max hits, workers, shard size, resume).
	CampaignOptions = campaign.Options
	// CampaignRecord is the result of searching one instance, the JSONL
	// record unit.
	CampaignRecord = campaign.Record
	// CampaignSummary aggregates a campaign run per grid cell.
	CampaignSummary = campaign.Summary
	// CampaignProgress is the per-shard report of a running campaign.
	CampaignProgress = campaign.Progress
	// CampaignSink consumes the per-instance records of a campaign run.
	CampaignSink = campaign.Sink
	// FuncCampaignSink adapts a callback into a CampaignSink.
	FuncCampaignSink = campaign.FuncSink
	// CampaignCheckpoint holds instances recovered from a partial JSONL
	// record file.
	CampaignCheckpoint = campaign.Checkpoint
	// CandidateFamily is an indexed deterministic candidate family (a
	// figure sweep of the reconstruction searches) runnable on the
	// campaign spine via SweepCandidateFamily.
	CandidateFamily = search.Family
	// HuntResult is a best-response cycle found on a unit-budget network.
	HuntResult = hunt.HuntResult
)

var (
	// RunCampaign executes a campaign's grid over a sharded worker pool,
	// streaming records to the sinks.
	RunCampaign = campaign.Run
	// CampaignSamplers lists the built-in instance samplers.
	CampaignSamplers = campaign.BuiltinSamplers
	// CampaignVariants lists the built-in SUM/MAX x SG/ASG/GBG/BG grid.
	CampaignVariants = campaign.BuiltinVariants
	// CampaignSamplerByName / CampaignVariantByName resolve grid axes.
	CampaignSamplerByName = campaign.SamplerByName
	CampaignVariantByName = campaign.VariantByName
	// NewCampaignJSONLSink streams campaign records as JSON lines.
	NewCampaignJSONLSink = campaign.NewJSONLSink
	// CreateCampaignJSONL creates (or truncates) a campaign record file.
	CreateCampaignJSONL = campaign.CreateJSONL
	// LoadCampaignCheckpoint parses a (possibly truncated) campaign JSONL
	// record file.
	LoadCampaignCheckpoint = campaign.LoadCheckpoint
	// ResumeCampaignJSONL prepares a partial campaign file for resumption.
	ResumeCampaignJSONL = campaign.ResumeJSONL
	// SweepCandidateFamily runs a figure candidate sweep on the campaign
	// spine; survivors in index order equal the sequential search's list.
	SweepCandidateFamily = campaign.SweepFamily
	// Fig5Family / Fig6MinimalFamily / Fig10Family are the Theorem 3.7 and
	// Figure 10 candidate sweeps as indexed families.
	Fig5Family        = search.Fig5Family
	Fig6MinimalFamily = search.Fig6MinimalFamily
	Fig10Family       = search.Fig10Family
	// HuntUnitBudgetCycle hunts the structured cycle-pendant unit-budget
	// family for a best-response cycle, reporting how many instances were
	// actually searched.
	HuntUnitBudgetCycle = hunt.HuntUnitBudgetCycle
)

// Fault-tolerant campaign service: a lease-based coordinator decomposes a
// campaign into (sampler, variant, instance-range) shards, leases them to
// worker processes over plain HTTP+JSON, re-leases expired shards, and
// merges the completed shards' records, appended to one durable shard
// log, into the exact byte stream a single-process RunCampaign would
// have written. Shards are idempotent
// (records are keyed by (sampler, variant, instance), never by
// scheduling), every durable write is atomic or append-fsync with
// truncated-tail recovery, and the coordinator resumes from its manifest
// after a crash. See cmd/ncghunt serve/work for the CLI form.
type (
	// Coordinator owns one campaign's shard ledger and merge.
	Coordinator = coord.Coordinator
	// CoordinatorConfig parameterizes OpenCoordinator (dir, campaign,
	// shard size, lease TTL, fault injector).
	CoordinatorConfig = coord.Config
	// CoordinatorStatus is a point-in-time progress snapshot.
	CoordinatorStatus = coord.Status
	// CampaignWorkerConfig parameterizes RunCampaignWorker (coordinator
	// URL, campaign, retry/backoff, worker name).
	CampaignWorkerConfig = coord.WorkerConfig
	// CampaignWorkerStats summarizes one worker's run.
	CampaignWorkerStats = coord.WorkerStats
	// CampaignRegistry hosts many campaigns in one process under
	// campaign-scoped routes (/c/<name>/v1/...) with crash isolation,
	// /healthz and /readyz, and optional supervised auto-restart.
	CampaignRegistry = coord.Registry
	// CampaignRegistryConfig parameterizes NewCampaignRegistry (root state
	// directory, auto-restart delay, Retry-After hint).
	CampaignRegistryConfig = coord.RegistryConfig
	// CampaignInfo is one row of the registry's GET /v1/campaigns.
	CampaignInfo = coord.CampaignInfo
	// CampaignWatchConfig parameterizes RunCampaignWatch (coordinator URL,
	// resume cursor, chunk handler, retry/backoff budgets).
	CampaignWatchConfig = coord.WatchConfig
	// CampaignWatchStats summarizes one watch: acked bytes, polls,
	// reconnects and the final resume cursor.
	CampaignWatchStats = coord.WatchStats
	// FaultInjector is the deterministic fault seam of the service; nil
	// is the production no-op. Schedules are pure functions of a seed, so
	// chaos runs are exactly reproducible.
	FaultInjector = faultinject.Injector
	// FaultSchedule maps injection points to scheduled fault kinds.
	FaultSchedule = faultinject.Schedule
	// FaultPoint names one fault site of the service.
	FaultPoint = faultinject.Point
	// FaultKind is the fault fired at a point (FaultNone proceeds).
	FaultKind = faultinject.Kind
)

// Fault sites of the campaign service.
const (
	FaultPointShardWrite     = faultinject.ShardWrite
	FaultPointManifestAppend = faultinject.ManifestAppend
	FaultPointLeaseGrant     = faultinject.LeaseGrant
	FaultPointHeartbeat      = faultinject.Heartbeat
	FaultPointWorkerInstance = faultinject.WorkerInstance
	FaultPointStreamChunk    = faultinject.StreamChunk
	FaultPointStreamClient   = faultinject.StreamClient
)

// Fault kinds.
const (
	FaultNone      = faultinject.None
	FaultCrash     = faultinject.Crash
	FaultTorn      = faultinject.Torn
	FaultDrop      = faultinject.Drop
	FaultStall     = faultinject.Stall
	FaultDuplicate = faultinject.Duplicate
)

// ErrInjectedCrash is the error a worker returns when its fault schedule
// fires a crash point; chaos harnesses match it to tell injected deaths
// from real failures.
var ErrInjectedCrash = coord.ErrInjectedCrash

var (
	// OpenCoordinator creates or resumes a coordinator in a state
	// directory; serve its Handler() over HTTP and watch Done().
	OpenCoordinator = coord.Open
	// RunCampaignWorker leases, executes and completes shards until the
	// campaign is done or the context is cancelled.
	RunCampaignWorker = coord.RunWorker
	// RunCampaignWatch follows a coordinator's live result stream
	// (GET /v1/stream) with cursor-exact resume across disconnects and
	// coordinator restarts; the chunks it delivers, concatenated, are
	// always a byte-prefix of the campaign's canonical records.jsonl.
	RunCampaignWatch = coord.RunWatch
	// NewCampaignRegistry builds an empty multi-campaign registry; Add
	// campaigns and serve its Handler() over HTTP.
	NewCampaignRegistry = coord.NewRegistry
	// NewFaultInjector builds an injector from a schedule.
	NewFaultInjector = faultinject.New
	// SeededFaultSchedule derives a reproducible chaos schedule from a
	// seed (horizon bounds occurrences so runs converge).
	SeededFaultSchedule = faultinject.Seeded
	// AtomicWriteFile writes a file via temp+fsync+rename so crashes
	// leave either the old or the new content, never a torn mix.
	AtomicWriteFile = jsonl.AtomicWriteFile
)

// Experiment harness (the paper's empirical figures, running on the
// ensemble spine).
type (
	// ExperimentOptions scale a figure regeneration.
	ExperimentOptions = experiments.Options
	// FigureResult is a regenerated empirical figure.
	FigureResult = experiments.FigureResult
)

var (
	// RegenerateFigure regenerates one of the empirical figures (7, 8,
	// 11-14).
	RegenerateFigure = experiments.Figure
	// DefaultExperimentOptions returns the scaled-down defaults.
	DefaultExperimentOptions = experiments.DefaultOptions
)

// Equilibrium quality (price-of-anarchy style measurements).
type (
	// QualityReport compares a network's social cost to the social
	// optimum of its game.
	QualityReport = quality.Report
	// PhaseProfile is the move-kind mix of a trajectory in thirds.
	PhaseProfile = experiments.PhaseProfile
)

var (
	// EvaluateQuality measures a (stable) network against the SUM Buy
	// Game social optimum.
	EvaluateQuality = quality.Evaluate
	// SumBGOptimum returns the social optimum network and cost.
	SumBGOptimum = quality.SumBGOptimum
	// ProfilePhases segments a trajectory of move kinds into thirds
	// (Section 4.2.2 phase analysis).
	ProfilePhases = experiments.Profile
)
