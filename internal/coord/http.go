package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ncg/internal/campaign"
	"ncg/internal/faultinject"
)

// The wire types of the lease protocol (plain JSON over POST).

// LeaseRequest asks for a shard. Fingerprint must match the
// coordinator's resolved campaign exactly.
type LeaseRequest struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
}

// LeaseResponse grants a shard, asks the worker to wait, or reports the
// campaign complete.
type LeaseResponse struct {
	// Done: the campaign is complete and merged; the worker should exit.
	Done bool `json:"done"`
	// Wait: nothing is grantable right now (all remaining shards are
	// leased); retry after WaitMs.
	Wait   bool  `json:"wait"`
	WaitMs int64 `json:"waitMs"`
	// A granted lease: renew it with heartbeats every TTLMs/3.
	Lease string            `json:"lease"`
	Index int               `json:"index"`
	Shard campaign.ShardRef `json:"shard"`
	TTLMs int64             `json:"ttlMs"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Lease string `json:"lease"`
}

// HeartbeatResponse reports whether the lease is still live. A false OK
// means the lease expired (and its shard may already be re-leased); the
// worker may still finish and upload — completion is idempotent.
type HeartbeatResponse struct {
	OK    bool  `json:"ok"`
	TTLMs int64 `json:"ttlMs"`
}

// CompleteRequest uploads a finished shard's records as JSONL text —
// byte-for-byte the lines a single-process run would write for those
// instances.
type CompleteRequest struct {
	Lease   string `json:"lease"`
	Worker  string `json:"worker"`
	Index   int    `json:"index"`
	Records string `json:"records"`
}

// CompleteResponse acknowledges a completed shard.
type CompleteResponse struct {
	OK bool `json:"ok"`
	// Done: this was the last shard; the merged stream is on disk.
	Done bool `json:"done"`
}

// ReleaseRequest gives a lease back (graceful worker drain).
type ReleaseRequest struct {
	Lease string `json:"lease"`
}

// Handler serves the coordinator's API:
//
//	POST /v1/lease      LeaseRequest   -> LeaseResponse
//	POST /v1/heartbeat  HeartbeatRequest -> HeartbeatResponse
//	POST /v1/complete   CompleteRequest -> CompleteResponse
//	POST /v1/release    ReleaseRequest -> {}
//	GET  /v1/status     -> Status
//	GET  /v1/records    -> JSONL dump of the committed record prefix
//	                       (the merged stream once complete), one shot
//	GET  /v1/stream     -> the live result stream: cursor-resumable
//	                       long-poll or SSE over the committed prefix,
//	                       with bounded chunks, slow-client eviction and
//	                       admission control (see stream.go)
//
// Multi-campaign deployments mount these under /c/{name}/ via Registry;
// the flat routes serve the single-campaign form.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/release", c.handleRelease)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /v1/records", c.handleRecords)
	mux.HandleFunc("GET /v1/stream", c.handleStream)
	return mux
}

// decode parses a JSON request body, bounding it defensively.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// gone reports a simulated-crash coordinator: every request fails until
// the process is restarted on the same directory. The Retry-After hint
// paces worker and watch retry loops through the restart window.
func (c *Coordinator) gone(w http.ResponseWriter) bool {
	if c.crashed {
		w.Header().Set("Retry-After", retryAfterSeconds(c.cfg.RetryAfter))
		http.Error(w, "coordinator crashed", http.StatusServiceUnavailable)
		return true
	}
	return false
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gone(w) {
		return
	}
	if req.Fingerprint != c.fp {
		http.Error(w, fmt.Sprintf("campaign fingerprint mismatch:\n  coordinator: %s\n  worker:      %s", c.fp, req.Fingerprint),
			http.StatusConflict)
		return
	}
	now := c.cfg.Now()
	c.reap(now)
	if c.merged {
		reply(w, LeaseResponse{Done: true})
		return
	}
	// A duplicate-grant fault hands out a shard that is already leased:
	// two workers race the same instance range, and completion must stay
	// idempotent because both produce identical bytes.
	if c.cfg.Injector.Fire(faultinject.LeaseGrant) == faultinject.Duplicate {
		for i := range c.states {
			if c.states[i].status == shardLeased {
				l := c.grant(i, req.Worker, now)
				c.cfg.Logf("coord: injected duplicate grant of %s", c.plan[i])
				reply(w, LeaseResponse{Lease: l.id, Index: i, Shard: c.plan[i], TTLMs: c.cfg.LeaseTTL.Milliseconds()})
				return
			}
		}
	}
	for i := range c.states {
		if c.states[i].status == shardPending {
			l := c.grant(i, req.Worker, now)
			reply(w, LeaseResponse{Lease: l.id, Index: i, Shard: c.plan[i], TTLMs: c.cfg.LeaseTTL.Milliseconds()})
			return
		}
	}
	// Nothing pending: either everything is done (merge may still be
	// in flight on another request) or the stragglers are leased out.
	reply(w, LeaseResponse{Wait: true, WaitMs: (c.cfg.LeaseTTL / 4).Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gone(w) {
		return
	}
	now := c.cfg.Now()
	c.reap(now)
	l, ok := c.leases[req.Lease]
	if !ok {
		reply(w, HeartbeatResponse{OK: false})
		return
	}
	l.expiry = now.Add(c.cfg.LeaseTTL)
	reply(w, HeartbeatResponse{OK: true, TTLMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gone(w) {
		return
	}
	if l, ok := c.leases[req.Lease]; ok {
		delete(c.leases, req.Lease)
		c.cfg.Logf("coord: lease %s released (%s)", l.id, c.plan[l.index])
	}
	c.reap(c.cfg.Now())
	reply(w, struct{}{})
}

// handleComplete persists a finished shard. The durability order is the
// crash-safety invariant: (1) records written at the shard log's
// committed end and fsynced, (2) manifest entry naming that span appended
// with fsync, (3) the committed end advanced and in-memory state marked
// done. A crash between (1) and (2) leaves an uncommitted log tail
// recovery cuts (the shard re-runs); a crash inside (2) leaves a torn
// manifest tail recovery truncates. A complete for an already-done shard
// verifies the bytes match and acknowledges — re-executed leases are
// idempotent, never an error. A complete whose lease expired (or was
// never granted, after a coordinator restart) is accepted the same way:
// the records are deterministic, so the upload's validity does not
// depend on who holds the lease.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gone(w) {
		return
	}
	if req.Index < 0 || req.Index >= len(c.plan) {
		http.Error(w, fmt.Sprintf("shard index %d outside the plan", req.Index), http.StatusBadRequest)
		return
	}
	ref := c.plan[req.Index]
	data := []byte(req.Records)
	if c.states[req.Index].status == shardDone {
		if checksum(data) != c.states[req.Index].sum {
			// Deterministic shards cannot legitimately diverge; a mismatch
			// means misconfigured workers and must surface loudly.
			http.Error(w, fmt.Sprintf("shard %s re-upload differs from the committed file", ref), http.StatusConflict)
			return
		}
		reply(w, CompleteResponse{OK: true, Done: c.merged})
		return
	}
	recs, err := campaign.UnmarshalRecords(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.validateShard(ref, recs); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hits := 0
	for _, rec := range recs {
		if rec.Hit {
			hits++
		}
	}
	switch c.cfg.Injector.Fire(faultinject.ShardWrite) {
	case faultinject.Crash:
		c.crash("shard-write")
		c.gone(w)
		return
	case faultinject.Torn:
		c.writeLog(data[:len(data)/2])
		c.crash("shard-write-torn")
		c.gone(w)
		return
	}
	if err := c.writeLog(data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	entry := manifestEntry{
		Type: "shard", Index: req.Index, Shard: ref,
		File: shardLogName, Offset: c.logEnd, Bytes: int64(len(data)), Sum: checksum(data),
		Records: len(recs), Hits: hits,
	}
	switch c.cfg.Injector.Fire(faultinject.ManifestAppend) {
	case faultinject.Crash:
		c.crash("manifest-append")
		c.gone(w)
		return
	case faultinject.Torn:
		c.man.appendTorn(entry)
		c.crash("manifest-append-torn")
		c.gone(w)
		return
	}
	if err := c.man.append(entry); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.logEnd += entry.Bytes
	c.states[req.Index] = shardState{
		status: shardDone, off: entry.Offset, bytes: entry.Bytes, sum: entry.Sum,
		records: len(recs), hits: hits,
	}
	// Wake stream waiters: if this shard extended the committed prefix,
	// long-polls past the old prefix can now be served. (Spurious wakes —
	// a shard landing behind an earlier gap — just re-check and re-wait.)
	c.notifyCommit()
	for id, l := range c.leases {
		if l.index == req.Index {
			delete(c.leases, id)
		}
	}
	c.cfg.Logf("coord: shard %d (%s) completed by %s: %d records, %d hits", req.Index, ref, req.Worker, len(recs), hits)
	if c.doneCount() == len(c.plan) && !c.merged {
		if err := c.mergeLocked(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	reply(w, CompleteResponse{OK: true, Done: c.merged})
}

// writeLog writes data at the shard log's committed end and fsyncs it.
// It does not advance the end: that happens only once the manifest
// vouches for the bytes, so a failed or uncommitted write is simply
// overwritten by the next one. Callers hold mu.
func (c *Coordinator) writeLog(data []byte) error {
	if _, err := c.log.WriteAt(data, c.logEnd); err != nil {
		return err
	}
	return c.log.Sync()
}

// validateShard is the upload integrity gate: the records must cover
// exactly the shard's instance range, in order, from this campaign's seed
// streams, and every hit must carry a decodable start network and a
// cycle trace that replays legally and closes. It keeps a confused, stale
// or tampering worker from ever contaminating the canonical stream.
func (c *Coordinator) validateShard(ref campaign.ShardRef, recs []campaign.Record) error {
	if len(recs) != ref.Hi-ref.Lo {
		return fmt.Errorf("shard %s upload has %d records, want %d", ref, len(recs), ref.Hi-ref.Lo)
	}
	for i, rec := range recs {
		if rec.Campaign != c.camp.Name || rec.Sampler != ref.Sampler || rec.Variant != ref.Variant || rec.Instance != ref.Lo+i {
			return fmt.Errorf("shard %s upload record %d is %s/%s/%s #%d, not this shard's instance %d",
				ref, i, rec.Campaign, rec.Sampler, rec.Variant, rec.Instance, ref.Lo+i)
		}
		if !rec.Hit {
			continue
		}
		if _, err := rec.DecodeStart(); err != nil {
			return fmt.Errorf("shard %s upload record %d: %v", ref, i, err)
		}
		if _, err := rec.DecodeCycle(); err != nil {
			return fmt.Errorf("shard %s upload record %d: %v", ref, i, err)
		}
	}
	return nil
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gone(w) {
		return
	}
	c.reap(c.cfg.Now())
	reply(w, c.statusLocked())
}

// handleRecords streams the canonical record prefix: the concatenation of
// completed shards' log spans up to the first incomplete shard — exactly a
// prefix of the final merged stream, so a client can tail a hunt live and
// later reads only ever extend what it saw.
func (c *Coordinator) handleRecords(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if c.gone(w) {
		c.mu.Unlock()
		return
	}
	spans := c.chunkSpansLocked(0, c.prefixLocked())
	complete := c.doneCount() == len(c.plan)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("X-Ncg-Complete", fmt.Sprintf("%v", complete))
	for _, sp := range spans {
		if _, err := io.Copy(w, io.NewSectionReader(c.log, sp.off, sp.n)); err != nil {
			return
		}
	}
}
