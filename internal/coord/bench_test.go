package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ncg/internal/campaign"
	"ncg/internal/game"
)

// BenchmarkCoordComplete measures the coordinator's shard commit path: one
// op is one /v1/complete through the handler — upload validation, the
// durable append to the shard log, the manifest append, and, on a plan's
// last shard, the merge. The 1,000-shard plan's uploads are computed
// once up front; every 1,000 ops start over in a fresh directory, so
// ns/op is the mean cost per complete over whole plans (run with
// -benchtime 1000x or a multiple).
func BenchmarkCoordComplete(b *testing.B) {
	camp, bodies := benchCompletePlan(b)
	var c *Coordinator
	var h http.Handler
	var err error
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		i := op % len(bodies)
		if i == 0 {
			b.StopTimer()
			if c != nil {
				c.Close()
			}
			if c, err = Open(Config{Campaign: camp, Dir: b.TempDir(), ShardSize: 1}); err != nil {
				b.Fatal(err)
			}
			h = c.Handler()
			b.StartTimer()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			b.Fatalf("complete %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	c.Close()
}

// benchComplete caches the benchmark plan's uploads across the repeated
// calls the testing package makes while sizing b.N.
var benchComplete struct {
	once   sync.Once
	camp   campaign.Campaign
	bodies [][]byte
	err    error
}

// benchCompletePlan returns the benchmark campaign (one random-tree
// sampler, two swap variants, 500 instances each, shard size 1: 1,000
// shards) and each shard's /v1/complete request body.
func benchCompletePlan(b *testing.B) (campaign.Campaign, [][]byte) {
	bc := &benchComplete
	bc.once.Do(func() { bc.camp, bc.bodies, bc.err = buildCompletePlan() })
	if bc.err != nil {
		b.Fatal(bc.err)
	}
	return bc.camp, bc.bodies
}

func buildCompletePlan() (campaign.Campaign, [][]byte, error) {
	camp := campaign.Campaign{
		Name:     "coord-bench",
		Samplers: []campaign.Sampler{campaign.TreeSampler()},
		Variants: []campaign.Variant{
			{Name: "sum-sg", New: func(int) game.Game { return game.NewSwap(game.Sum) }},
			{Name: "max-sg", New: func(int) game.Game { return game.NewSwap(game.Max) }},
		},
		N:         8,
		Instances: 500,
		Seed:      7,
		MaxStates: 300,
	}
	resolved, err := campaign.Resolve(camp, campaign.Options{})
	if err != nil {
		return camp, nil, err
	}
	plan, err := campaign.Plan(resolved, 1)
	if err != nil {
		return camp, nil, err
	}
	if len(plan) != 1000 {
		return camp, nil, fmt.Errorf("plan has %d shards, want 1000", len(plan))
	}
	bodies := make([][]byte, len(plan))
	for i, ref := range plan {
		recs, err := campaign.RunShard(context.Background(), resolved, ref, nil)
		if err != nil {
			return camp, nil, err
		}
		data, err := campaign.MarshalRecords(recs)
		if err != nil {
			return camp, nil, err
		}
		if bodies[i], err = json.Marshal(CompleteRequest{Worker: "bench", Index: i, Records: string(data)}); err != nil {
			return camp, nil, err
		}
	}
	return camp, bodies, nil
}
