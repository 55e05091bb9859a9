package ncg

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFacadeQuickstart exercises the public API end to end.
func TestFacadeQuickstart(t *testing.T) {
	g := Path(9)
	res := Run(g, ProcessConfig{Game: NewMaxSwapGame(), Policy: MaxCostPolicy(), Seed: 1})
	if !res.Converged {
		t.Fatal("quickstart did not converge")
	}
	if !Stable(g, NewMaxSwapGame()) {
		t.Fatal("result not stable")
	}
	if !g.IsStar() && !g.IsDoubleStar() {
		t.Fatal("stable MAX-SG tree must be a star or double star")
	}
}

func TestFacadeGames(t *testing.T) {
	games := []Game{
		NewSumSwapGame(), NewMaxSwapGame(),
		NewAsymSwapGame(SUM), NewAsymSwapGame(MAX),
		NewGreedyBuyGame(SUM, NewAlpha(3, 2)),
		NewBuyGame(MAX, AlphaInt(2)),
		NewBilateralGame(SUM, AlphaInt(4)),
	}
	names := map[string]bool{}
	for _, gm := range games {
		if names[gm.Name()] {
			t.Fatalf("duplicate game name %q", gm.Name())
		}
		names[gm.Name()] = true
	}
}

func TestFacadePaperCycles(t *testing.T) {
	insts := PaperCycles()
	if len(insts) < 8 {
		t.Fatalf("expected at least 8 verified constructions, got %d", len(insts))
	}
	for _, inst := range insts {
		if err := inst.Verify(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	r := NewRand(3)
	g := BudgetNetwork(20, 2, r)
	if g.M() != 40 || !g.Connected() {
		t.Fatal("budget network malformed")
	}
	h := RandomConnected(15, 30, r)
	if h.M() != 30 || !h.Connected() {
		t.Fatal("random connected malformed")
	}
	tr := RandomTree(12, r)
	if !tr.IsTree() {
		t.Fatal("random tree malformed")
	}
}

func TestFacadeExperiment(t *testing.T) {
	opt := ExperimentOptions{Ns: []int{10}, Trials: 4, Seed: 1}
	var fr FigureResult
	fr, err := RegenerateFigure(7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Series) == 0 {
		t.Fatal("no series")
	}
	if def := DefaultExperimentOptions(); def.Trials < 1 || len(def.Ns) == 0 {
		t.Fatalf("default options %+v cannot run", def)
	}
	if _, err := RegenerateFigure(11, ExperimentOptions{Ns: []int{3}, Trials: 1, Seed: 1}); err == nil {
		t.Fatal("figure 11 at n=3 (m=4n is not drawable) returned no error")
	}
	var pp PhaseProfile = ProfilePhases(nil)
	if pp.Opening.Moves+pp.Middle.Moves+pp.End.Moves != 0 {
		t.Fatalf("phase profile %+v of an empty trajectory has moves", pp)
	}
}

func TestFacadeExploration(t *testing.T) {
	insts := PaperCycles()
	var fig16 CycleInstance
	for _, in := range insts {
		if in.Name == "Fig16 MAX-bilateral" {
			fig16 = in
		}
	}
	fc := FindBestResponseCycle(fig16.Start(), fig16.Game, 2000)
	if fc == nil {
		t.Fatal("Fig 16 must admit a reachable best-response cycle")
	}
	res, err := ExploreBestResponse(fig16.Start(), fig16.Game, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.States < 2 {
		t.Fatalf("exploration too small: %+v", res)
	}
	// The parallel explorer with options yields the identical result.
	var levels int
	pres, err := Explore(fig16.Start(), fig16.Game, ExploreOptions{
		MaxStates:    5000,
		BestResponse: true,
		Workers:      3,
		Progress:     func(ExploreProgress) { levels++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if pres != res || levels == 0 {
		t.Fatalf("parallel exploration diverged: %+v vs %+v (%d levels)", pres, res, levels)
	}
}

func TestFacadeEnsemble(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 12 {
		t.Fatalf("registry exposes %d scenarios, want >= 12", len(scs))
	}
	sc, ok := LookupScenario("fig7-asg-sum-k2")
	if !ok {
		t.Fatal("figure scenario missing from facade registry")
	}
	var buf bytes.Buffer
	var recs int
	sum, err := RunScenario(sc, EnsembleOptions{Ns: []int{10}, Trials: 4, Workers: 2},
		NewJSONLSink(&buf), FuncRecordSink(func(EnsembleRecord) error { recs++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if recs != 4 || sum.Aggregates[0].Trials != 4 {
		t.Fatalf("facade run malformed: %d records, %+v", recs, sum)
	}
	if !strings.Contains(buf.String(), `"scenario":"fig7-asg-sum-k2"`) {
		t.Fatalf("JSONL missing scenario field:\n%s", buf.String())
	}
}

func TestFacadeDeterministicPolicy(t *testing.T) {
	g := Path(16)
	res := Run(g, ProcessConfig{
		Game:   NewMaxSwapGame(),
		Policy: MaxCostDeterministicPolicy(),
		Tie:    TieFirst,
	})
	if !res.Converged {
		t.Fatal("deterministic max cost run did not converge")
	}
	if PolicyMaxCostDeterministic.Policy().Name() != MaxCostDeterministicPolicy().Name() {
		t.Fatal("policy kind and constructor disagree")
	}
}

// TestFacadeCampaign exercises the counterexample-hunt exports end to end:
// a small campaign over built-in samplers and variants, streamed to a
// JSONL sink, plus the campaign-backed unit-budget hunt.
func TestFacadeCampaign(t *testing.T) {
	tree, ok := CampaignSamplerByName("random-tree")
	if !ok {
		t.Fatal("random-tree sampler missing")
	}
	sumASG, ok := CampaignVariantByName("sum-asg")
	if !ok {
		t.Fatal("sum-asg variant missing")
	}
	var buf bytes.Buffer
	sum, err := RunCampaign(Campaign{
		Name:      "facade-hunt",
		Samplers:  []CampaignSampler{tree},
		Variants:  []CampaignVariant{sumASG},
		N:         6,
		Instances: 3,
		Seed:      1,
		MaxStates: 100,
	}, CampaignOptions{Workers: 2}, NewCampaignJSONLSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Searched != 3 || sum.Instances != 3 {
		t.Fatalf("summary %+v", sum)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("JSONL lines = %d, want 3", got)
	}
	if len(CampaignSamplers()) < 5 || len(CampaignVariants()) != 8 {
		t.Fatalf("builtin grid: %d samplers, %d variants",
			len(CampaignSamplers()), len(CampaignVariants()))
	}
	var res *HuntResult
	res, searched, err := HuntUnitBudgetCycle(SUM, 1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := HuntUnitBudgetCycle(SUM, 1, 0, 100); err == nil {
		t.Fatal("hunt with no instance budget returned no error")
	}
	if searched != 2 {
		t.Fatalf("hunt searched %d instances, want 2", searched)
	}
	if res != nil {
		t.Logf("hunt found a cycle at instance %d", res.Instance)
	}
	if f := Fig10Family(); f.Total != 262144 {
		t.Fatalf("Fig10 family total = %d", f.Total)
	}
}

// TestFacadeCampaignService runs the lease-based coordinator end to end
// through the facade: open, serve, one worker, merged stream byte-identical
// to the single-process run.
func TestFacadeCampaignService(t *testing.T) {
	tree, ok := CampaignSamplerByName("random-tree")
	if !ok {
		t.Fatal("random-tree sampler missing")
	}
	sumSG, ok := CampaignVariantByName("sum-sg")
	if !ok {
		t.Fatal("sum-sg variant missing")
	}
	c := Campaign{
		Name:      "facade-service",
		Samplers:  []CampaignSampler{tree},
		Variants:  []CampaignVariant{sumSG},
		N:         8,
		Instances: 6,
		Seed:      3,
		MaxStates: 200,
	}
	var want bytes.Buffer
	if _, err := RunCampaign(c, CampaignOptions{}, NewCampaignJSONLSink(&want)); err != nil {
		t.Fatal(err)
	}

	co, err := OpenCoordinator(CoordinatorConfig{Campaign: c, Dir: t.TempDir(), ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	stats, err := RunCampaignWorker(context.Background(), CampaignWorkerConfig{URL: srv.URL, Campaign: c})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards == 0 {
		t.Fatalf("worker completed no shards: %+v", stats)
	}
	select {
	case <-co.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("campaign never merged; status %+v", co.Status())
	}
	got, err := os.ReadFile(co.ResultPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("merged stream differs from single-process run (%d vs %d bytes)", len(got), len(want.Bytes()))
	}
}

// TestFacadeAtomicWriteFile smoke-tests the crash-safe checkpoint writer.
func TestFacadeAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, content := range []string{"one", "two"} {
		if err := AtomicWriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("read %q, want %q", data, "two")
	}
}
