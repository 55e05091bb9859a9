package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/coord"
)

// hunt-service: one coordinator served over httptest to one worker and
// one watcher in this process. The campaign is random-tree N=7 x
// {sum-sg, max-sg}, 1000 instances per cell, two instances per shard.
const (
	huntN         = 7
	huntInstances = 1000
	huntShard     = 2
	huntMaxStates = 400
)

// spanHeader carries a client span's id to the server, so the handler's
// span becomes its child.
const spanHeader = "X-Perfbench-Span"

type huntBench struct {
	instances int    // per (sampler, variant) cell
	state     string // parent of dir
	dir       string // this invocation's coordinator directories
	camp      campaign.Campaign
	lineOf    []int // shard index of each record line of the merged stream
	setups    int
	passes    int
	ref       []byte
}

func (b *huntBench) setup(seed int64) error {
	tree, ok1 := campaign.SamplerByName("random-tree")
	sum, ok2 := campaign.VariantByName("sum-sg")
	max, ok3 := campaign.VariantByName("max-sg")
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("random-tree, sum-sg or max-sg is not registered")
	}
	if seed == 0 { // 0 would select the campaign's default seed
		seed = 1
	}
	if b.dir == "" {
		if err := os.MkdirAll(b.state, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(b.state, "hunt-")
		if err != nil {
			return err
		}
		b.dir = dir
	}
	c, err := campaign.Resolve(campaign.Campaign{
		Name:      "perfbench-hunt",
		Samplers:  []campaign.Sampler{tree},
		Variants:  []campaign.Variant{sum, max},
		N:         huntN,
		Instances: b.instances,
		Seed:      seed,
		MaxStates: huntMaxStates,
	}, campaign.Options{})
	if err != nil {
		return err
	}
	plan, err := campaign.Plan(c, huntShard)
	if err != nil {
		return err
	}
	b.camp, b.lineOf = c, b.lineOf[:0]
	for i, ref := range plan {
		for j := ref.Lo; j < ref.Hi; j++ {
			b.lineOf = append(b.lineOf, i)
		}
	}
	// Opening a coordinator on a fresh directory is part of set-up.
	b.setups++
	co, err := coord.Open(coord.Config{Campaign: c, Dir: filepath.Join(b.dir, fmt.Sprintf("setup-%d", b.setups)), ShardSize: huntShard})
	if err != nil {
		return err
	}
	return co.Close()
}

// reference runs the same campaign in this process, without the service.
func (b *huntBench) reference() error {
	var buf bytes.Buffer
	if _, err := campaign.Run(b.camp, campaign.Options{}, campaign.NewJSONLSink(&buf)); err != nil {
		return err
	}
	b.ref = buf.Bytes()
	return nil
}

// huntPass is the state one pass's instrumentation shares between the
// worker, the watcher and the server.
type huntPass struct {
	tr     *tracer
	root   int64
	lineOf []int

	mu        sync.Mutex
	calls     map[string][]float64 // client round trips by path, ms
	handlers  map[string][]float64 // server handler times by path, ms
	wait      time.Duration        // stream handlers parked before their first write
	shards    []float64            // lease response to complete request, ms
	leaseEnd  time.Time
	lastDone  time.Time         // end of the previous completion (or the pass start)
	units     []time.Duration   // between consecutive completions
	commit    map[int]time.Time // shard index -> its /v1/complete reply
	lags      []float64
	lines     int
	workCalls int
	errs      int
}

// transport times each client call and tags it with a span id.
type transport struct {
	h      *huntPass
	base   *http.Transport
	worker bool
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.h
	id := h.tr.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	path := req.URL.Path
	start := time.Now()
	if path == "/v1/complete" {
		h.mu.Lock()
		leased := h.leaseEnd
		h.shards = append(h.shards, ms(start.Sub(leased)))
		h.mu.Unlock()
		h.tr.record(h.root, "campaign", "shard", leased, start)
	}
	res, err := t.base.RoundTrip(req)
	if err != nil {
		h.mu.Lock()
		h.errs++
		h.mu.Unlock()
		return nil, err
	}
	res.Body = &timedBody{ReadCloser: res.Body, done: func() {
		end := time.Now()
		h.mu.Lock()
		h.calls[path] = append(h.calls[path], ms(end.Sub(start)))
		if t.worker {
			h.workCalls++
		}
		switch {
		case path == "/v1/lease":
			h.leaseEnd = end
		case path == "/v1/complete" && res.StatusCode == http.StatusOK:
			h.units = append(h.units, end.Sub(h.lastDone))
			h.lastDone = end
		}
		h.mu.Unlock()
		h.tr.add(id, h.root, "coord", "call "+path, start, end)
	}}
	return res, nil
}

// timedBody reports when the caller has finished with a response.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// firstWrite notes when a handler starts its response: for a stream poll
// that ends its park, for a completion it is the commit (the reply is
// written while the coordinator still holds its lock, so no stream read
// can see the commit earlier).
type firstWrite struct {
	http.ResponseWriter
	at      time.Time
	onFirst func(code int) // nil: nothing to note
}

func (w *firstWrite) first(code int) {
	if !w.at.IsZero() {
		return
	}
	w.at = time.Now()
	if w.onFirst != nil {
		w.onFirst(code)
	}
}

func (w *firstWrite) WriteHeader(code int) {
	w.first(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.first(http.StatusOK)
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the real writer's deadlines
// and flushing.
func (w *firstWrite) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handler wraps the coordinator's handler to time the server side.
func (h *huntPass) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		index := -1
		if r.URL.Path == "/v1/complete" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var req struct {
				Index int `json:"index"`
			}
			if json.Unmarshal(body, &req) == nil {
				index = req.Index
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		fw := &firstWrite{ResponseWriter: w}
		if index >= 0 {
			fw.onFirst = func(code int) {
				h.mu.Lock()
				defer h.mu.Unlock()
				if _, seen := h.commit[index]; code == http.StatusOK && !seen {
					h.commit[index] = fw.at
				}
			}
		}
		next.ServeHTTP(fw, r)
		end := time.Now()
		if fw.at.IsZero() {
			fw.at = end
		}
		id := h.tr.record(parent, "coord", "handler "+r.URL.Path, start, end)
		h.mu.Lock()
		defer h.mu.Unlock()
		h.handlers[r.URL.Path] = append(h.handlers[r.URL.Path], ms(end.Sub(start)))
		if r.URL.Path == "/v1/stream" {
			h.wait += fw.at.Sub(start)
			h.tr.record(id, "wait", "stream park", start, fw.at)
		}
	})
}

// delivered timestamps the records a watcher chunk completes.
func (h *huntPass) delivered(chunk []byte) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range chunk {
		if c != '\n' {
			continue
		}
		if h.lines < len(h.lineOf) {
			if at, ok := h.commit[h.lineOf[h.lines]]; ok {
				h.lags = append(h.lags, ms(now.Sub(at)))
			}
		}
		h.lines++
	}
}

func (b *huntBench) pass(tr *tracer, root int64, _ bool) (*pass, error) {
	b.passes++
	dir := filepath.Join(b.dir, fmt.Sprintf("pass-%d", b.passes))
	defer os.RemoveAll(dir)
	co, err := coord.Open(coord.Config{Campaign: b.camp, Dir: dir, ShardSize: huntShard})
	if err != nil {
		return nil, err
	}
	defer co.Close()
	h := &huntPass{
		tr: tr, root: root, lineOf: b.lineOf,
		calls: map[string][]float64{}, handlers: map[string][]float64{}, commit: map[int]time.Time{},
	}
	srv := httptest.NewServer(h.handler(co.Handler()))
	defer srv.Close()
	// One connection each for the worker and the watcher.
	workT := &http.Transport{MaxConnsPerHost: 1}
	watchT := &http.Transport{MaxConnsPerHost: 1}
	defer workT.CloseIdleConnections()
	defer watchT.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var watched bytes.Buffer
	var watchStats coord.WatchStats
	var watchErr error
	var wg sync.WaitGroup
	start := time.Now()
	h.leaseEnd, h.lastDone = start, start
	wg.Add(1)
	go func() {
		defer wg.Done()
		watchStats, watchErr = coord.RunWatch(ctx, coord.WatchConfig{
			URL:    srv.URL,
			Client: &http.Client{Transport: &transport{h: h, base: watchT}},
			OnChunk: func(chunk []byte, _ string, _ bool) error {
				h.delivered(chunk)
				_, err := watched.Write(chunk)
				return err
			},
		})
	}()
	workStats, workErr := coord.RunWorker(ctx, coord.WorkerConfig{
		URL:      srv.URL,
		Campaign: b.camp,
		Name:     "perfbench-worker",
		Client:   &http.Client{Transport: &transport{h: h, base: workT, worker: true}},
	})
	if workErr != nil {
		cancel()
	}
	wg.Wait()
	wall := time.Since(start)
	if workErr != nil {
		return nil, fmt.Errorf("worker: %w", workErr)
	}
	if watchErr != nil {
		return nil, fmt.Errorf("watch: %w", watchErr)
	}
	merged, err := os.ReadFile(co.ResultPath())
	if err != nil {
		return nil, err
	}
	recs, err := campaign.UnmarshalRecords(merged)
	if err != nil {
		return nil, err
	}

	p := newPass()
	p.wall = wall
	p.output = [][]byte{merged, watched.Bytes()}
	p.runs = float64(len(recs))
	p.recs = float64(len(recs))
	for _, rec := range recs {
		p.states += float64(rec.States)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p.lags = h.lags
	p.units = h.units
	p.ops = h.workCalls + watchStats.Polls
	p.errs = h.errs + workStats.Retries + watchStats.Retries + watchStats.Reconnects
	p.counts["campaign.states"] = int64(p.states)
	p.counts["coord.calls"] = int64(h.workCalls)
	p.counts["coord.retries"] = int64(workStats.Retries + watchStats.Retries)
	p.counts["coord.polls"] = int64(watchStats.Polls)
	p.counts["coord.stream_bytes"] = watchStats.Bytes
	p.layer["campaign.shard_ms"] = median(h.shards)
	p.layer["coord.lease_ms"] = median(h.calls["/v1/lease"])
	p.layer["coord.complete_ms"] = median(h.calls["/v1/complete"])
	p.layer["coord.stream_poll_ms"] = median(h.calls["/v1/stream"])
	p.layer["coord.handler.lease_ms"] = median(h.handlers["/v1/lease"])
	p.layer["coord.handler.complete_ms"] = median(h.handlers["/v1/complete"])
	p.layer["coord.stream_wait_ms"] = ms(h.wait)
	if v, ok := percentile(h.lags, 90); ok {
		p.layer["coord.stream_lag_p90_ms"] = v
	}
	return p, nil
}

func (b *huntBench) verify(_ *tracer, _ int64, p *pass) ([]string, map[string]float64) {
	var fails []string
	if !bytes.Equal(p.output[0], b.ref) {
		fails = append(fails, "coordinator records.jsonl differs from single-process campaign.Run")
	}
	if !bytes.Equal(p.output[1], b.ref) {
		fails = append(fails, "watched stream differs from single-process campaign.Run")
	}
	return fails, nil
}

func (b *huntBench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
