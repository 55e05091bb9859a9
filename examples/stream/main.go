// Live result streaming under failure: a registry-hosted coordinator
// serves a counterexample hunt to two workers while a watch client
// follows the committed record stream over GET /v1/stream. Mid-stream, a
// scheduled fault crashes the coordinator during a chunk write; the
// registry's supervisor reopens it from its own state directory, the
// watcher resumes from its last acked cursor, and the bytes it collected
// — across the crash, the reconnects and the restart — are exactly the
// campaign's canonical records.jsonl.
//
// The stream contract doing the work here: every chunk a client acks is
// a byte-prefix extension of the durable merged stream, and a cursor
// names an exact byte offset (fingerprint-scoped, so it can never
// resume into a different campaign). Nothing is buffered per client —
// chunks are read straight from the coordinator's committed shard log —
// so a crash loses no stream state that matters.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"ncg"
)

func main() {
	tree, _ := ncg.CampaignSamplerByName("random-tree")
	sumSG, _ := ncg.CampaignVariantByName("sum-sg")
	maxSG, _ := ncg.CampaignVariantByName("max-sg")
	c := ncg.Campaign{
		Name:      "example-stream",
		Samplers:  []ncg.CampaignSampler{tree},
		Variants:  []ncg.CampaignVariant{sumSG, maxSG},
		N:         9,
		Instances: 30,
		Seed:      17,
		MaxStates: 400,
	}

	// The baseline: what a single process would write.
	var want bytes.Buffer
	if _, err := ncg.RunCampaign(c, ncg.CampaignOptions{}, ncg.NewCampaignJSONLSink(&want)); err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "ncg-stream-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The registry supervises the coordinator: an injected crash takes its
	// routes to 503 + Retry-After, and AutoRestart reopens it from the
	// manifest — the in-process version of restarting `ncghunt serve`.
	reg := ncg.NewCampaignRegistry(ncg.CampaignRegistryConfig{
		AutoRestart: 50 * time.Millisecond,
		Logf: func(format string, args ...any) {
			fmt.Printf("  [registry] "+format+"\n", args...)
		},
	})
	defer reg.Close()
	if _, err := reg.Add("hunt", ncg.CoordinatorConfig{
		Campaign:  c,
		Dir:       dir,
		ShardSize: 4,
		LeaseTTL:  300 * time.Millisecond,
		// Small chunks so the watch takes several polls, and a crash
		// scheduled on the second chunk write: the coordinator dies while
		// serving the stream, mid-campaign. The injector instance survives
		// the restart, so the crash fires exactly once.
		StreamChunkBytes: 200,
		Injector: ncg.NewFaultInjector(ncg.FaultSchedule{
			ncg.FaultPointStreamChunk: {1: ncg.FaultCrash},
		}),
	}); err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	fmt.Printf("serving campaign %q with live stream at %s/v1/stream\n", "hunt", srv.URL)

	// The watcher follows the stream concurrently with the workers filling
	// it. It sees the crash as a severed connection or a 503, reconnects,
	// and resumes from the last cursor it acked.
	var got bytes.Buffer
	watchDone := make(chan ncg.CampaignWatchStats, 1)
	go func() {
		stats, err := ncg.RunCampaignWatch(context.Background(), ncg.CampaignWatchConfig{
			URL:  srv.URL,
			Wait: 200 * time.Millisecond,
			OnChunk: func(chunk []byte, cursor string, complete bool) error {
				_, werr := got.Write(chunk)
				return werr
			},
			Logf: func(format string, args ...any) {
				fmt.Printf("  [watch] "+format+"\n", args...)
			},
		})
		if err != nil {
			log.Fatalf("watch: %v", err)
		}
		watchDone <- stats
	}()

	// Two workers drain the shard queue; while the coordinator is down
	// they back off against its 503s and pick their leases back up after
	// the restart.
	var wg sync.WaitGroup
	for _, name := range []string{"steady-a", "steady-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := ncg.RunCampaignWorker(context.Background(), ncg.CampaignWorkerConfig{
				URL:      srv.URL,
				Campaign: c,
				Name:     name,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Fatalf("worker %s: %v", name, err)
			}
			fmt.Printf("worker %-8s done: %d shards, %d records, %d retries\n",
				name, stats.Shards, stats.Records, stats.Retries)
		}()
	}
	wg.Wait()
	stats := <-watchDone

	co := reg.Get("hunt")
	if co == nil {
		log.Fatal("campaign down after completion")
	}
	merged, err := os.ReadFile(co.ResultPath())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watch complete: %d bytes in %d polls (%d retries, %d reconnects), %d coordinator restart(s)\n",
		stats.Bytes, stats.Polls, stats.Retries, stats.Reconnects, reg.Restarts("hunt"))
	fmt.Printf("watched stream byte-identical to merged records: %v\n", bytes.Equal(got.Bytes(), merged))
	fmt.Printf("merged records byte-identical to single-process run: %v\n", bytes.Equal(merged, want.Bytes()))
}
