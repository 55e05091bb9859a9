// Package coord is the fault-tolerant campaign service: a lease-based
// coordinator that decomposes a resolved campaign into (sampler, variant,
// instance-range) shards, leases them to worker processes over plain
// HTTP+JSON, re-leases expired shards, and merges the completed shards'
// records — appended to one shard log — into the one canonical
// deterministic record stream: the exact bytes a single-process
// campaign.Run would have written. Robustness is the design center: every
// shard is idempotent (records are keyed by (sampler, variant, instance),
// never by scheduling, so a re-executed lease produces byte-identical
// JSONL), every durable write is atomic or append-fsync with
// truncated-tail recovery, and the whole protocol is
// exercised under seeded fault injection (internal/faultinject) that
// proves the merged stream survives crashes, torn writes, dropped
// heartbeats, stalls and duplicate leases.
package coord

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/faultinject"
	"ncg/internal/jsonl"
)

// Config shapes a coordinator.
type Config struct {
	// Campaign is the hunt to serve. Open resolves it (campaign.Resolve
	// with zero options), so pass the same campaign value workers are
	// started with; the fingerprint handshake rejects any drift.
	Campaign campaign.Campaign
	// Dir is the coordinator's state directory: manifest.jsonl (the
	// write-ahead log of shard completions), shards.log (the append-only
	// log of completed shards' records, addressed by the manifest's
	// offsets) and records.jsonl (the merged canonical stream).
	// A coordinator restarted on the same directory resumes exactly
	// where the manifest says it was.
	Dir string
	// ShardSize is the instance count per shard (0: 64). A resume must
	// use the original size; the manifest header pins it.
	ShardSize int
	// LeaseTTL is the heartbeat-renewed lease expiry (0: 30s).
	LeaseTTL time.Duration
	// MaxStreamClients is the admission-control cap on concurrent
	// /v1/stream clients (0: 64). Requests past the cap are refused with
	// 503 + Retry-After instead of degrading every connected client.
	MaxStreamClients int
	// StreamChunkBytes bounds the bytes a single stream response (or SSE
	// burst) carries (0: 256 KiB). Streaming serves the committed prefix
	// directly from the durable shard log in chunks of at most this
	// size, so a client costs the coordinator O(chunk) memory no matter
	// how far behind it is.
	StreamChunkBytes int
	// StreamWriteTimeout is the slow-client eviction deadline: a stream
	// client that cannot absorb one chunk within it is disconnected
	// (0: 5s). A stalled reader therefore costs O(1) memory for at most
	// this long and never delays shard completion or the merge.
	StreamWriteTimeout time.Duration
	// StreamPollMax caps a long-poll request's ?wait parameter (0: 30s).
	StreamPollMax time.Duration
	// RetryAfter is the hint sent with admission-control 503s (0: 1s).
	RetryAfter time.Duration
	// Now is the coordinator clock (nil: time.Now), injectable in tests.
	Now func() time.Time
	// Injector fires the seeded fault schedule of chaos runs (nil: no
	// faults).
	Injector *faultinject.Injector
	// Logf, if non-nil, receives one line per lease-protocol event.
	Logf func(format string, args ...any)
}

// shardStatus is the lifecycle of one planned shard.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

// lease is one live grant of a shard to a worker.
type lease struct {
	id     string
	index  int
	worker string
	expiry time.Time
}

// shardState is the coordinator's view of one planned shard.
type shardState struct {
	status  shardStatus
	off     int64 // start of the shard's records in the shard log
	bytes   int64
	sum     string
	records int
	hits    int
}

// Status is the coordinator's public progress snapshot, served at
// /v1/status.
type Status struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Pending     int    `json:"pending"`
	Leased      int    `json:"leased"`
	Done        int    `json:"done"`
	Records     int    `json:"records"`
	Hits        int    `json:"hits"`
	Merged      bool   `json:"merged"`
	// Autoscaling hints: QueueDepth is the ungranted shard backlog,
	// ActiveWorkers counts distinct workers holding live leases, and
	// WantWorkers is the shards runnable right now (pending + leased) —
	// the worker count at which the queue drains without idle pollers.
	QueueDepth    int `json:"queueDepth"`
	ActiveWorkers int `json:"activeWorkers"`
	WantWorkers   int `json:"wantWorkers"`
	// Stream observability: connected /v1/stream clients, the byte
	// length of the committed record prefix they can read, and slow
	// clients evicted so far.
	StreamClients int   `json:"streamClients"`
	StreamBytes   int64 `json:"streamBytes"`
	StreamEvicted int   `json:"streamEvicted"`
	StreamRefused int   `json:"streamRefused"`
}

// Coordinator serves one campaign's shard lease protocol and owns the
// durable run state under Config.Dir.
type Coordinator struct {
	cfg   Config
	camp  campaign.Campaign
	fp    string
	fpSum string // short fingerprint hash; the campaign id inside resume cursors
	plan  []campaign.ShardRef

	mu  sync.Mutex
	man *manifest
	// log is the append-only shard log; committed shards occupy
	// [0, logEnd) and the next completed shard is written at logEnd.
	// Bytes below logEnd are never rewritten, so readers may ReadAt
	// committed spans without holding mu.
	log     *os.File
	logEnd  int64
	states  []shardState
	leases  map[string]*lease
	nextID  int64
	merged  bool
	crashed bool

	// Streaming state: the connected-client gauge (admission control),
	// eviction/refusal counters, and the commit broadcast channel —
	// closed and replaced whenever the committed prefix grows, so
	// long-poll waiters wake without the coordinator ever buffering
	// per-client data.
	streams       int
	streamEvicted int
	streamRefused int
	commitCh      chan struct{}

	crashCh chan struct{}
	doneCh  chan struct{}
}

// Open creates or resumes a coordinator on cfg.Dir: it replays the
// manifest (truncating a torn tail), verifies every recorded shard's
// span of the shard log against its length and checksum — a shard whose
// bytes were lost or damaged simply becomes pending again — cuts any
// uncommitted log tail, and, if the plan is already complete, merges.
// Crash-safety contract: the manifest commits a shard only after its
// bytes are durable in the log, so recovery never trusts bytes the
// manifest does not vouch for, and vice versa a logged-but-damaged span
// is re-run, never merged.
func Open(cfg Config) (*Coordinator, error) {
	camp, err := campaign.Resolve(cfg.Campaign, campaign.Options{})
	if err != nil {
		return nil, err
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxStreamClients <= 0 {
		cfg.MaxStreamClients = 64
	}
	if cfg.StreamChunkBytes <= 0 {
		cfg.StreamChunkBytes = 256 << 10
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = 5 * time.Second
	}
	if cfg.StreamPollMax <= 0 {
		cfg.StreamPollMax = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	plan, err := campaign.Plan(camp, cfg.ShardSize)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// The log is created before the manifest: on a fresh directory the
	// manifest's atomic create fsyncs the directory, which commits the
	// log's directory entry too.
	log, err := os.OpenFile(filepath.Join(cfg.Dir, shardLogName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	man, entries, err := openManifest(filepath.Join(cfg.Dir, "manifest.jsonl"))
	if err != nil {
		log.Close()
		return nil, err
	}
	fp := campaign.Fingerprint(camp)
	c := &Coordinator{
		cfg:      cfg,
		camp:     camp,
		fp:       fp,
		fpSum:    checksum([]byte(fp)),
		plan:     plan,
		man:      man,
		log:      log,
		states:   make([]shardState, len(plan)),
		leases:   make(map[string]*lease),
		commitCh: make(chan struct{}),
		crashCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if err := c.recover(entries); err != nil {
		man.close()
		log.Close()
		return nil, err
	}
	return c, nil
}

// recover replays the manifest entries into run state and cuts the shard
// log back to its committed end.
func (c *Coordinator) recover(entries []manifestEntry) error {
	fi, err := c.log.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	seenHeader := false
	mergedLogged := false
	for _, e := range entries {
		switch e.Type {
		case "campaign":
			if e.Fingerprint != c.fp {
				return fmt.Errorf("coord: %s holds a different campaign:\n  dir: %s\n  run: %s", c.cfg.Dir, e.Fingerprint, c.fp)
			}
			if e.ShardSize != c.cfg.ShardSize || e.Shards != len(c.plan) {
				return fmt.Errorf("coord: %s was planned with shard size %d (%d shards), not %d (%d); resume with the original plan",
					c.cfg.Dir, e.ShardSize, e.Shards, c.cfg.ShardSize, len(c.plan))
			}
			seenHeader = true
		case "shard":
			if !seenHeader {
				return fmt.Errorf("coord: %s manifest has a shard entry before the campaign header", c.cfg.Dir)
			}
			if e.Index < 0 || e.Index >= len(c.plan) || c.plan[e.Index] != e.Shard {
				return fmt.Errorf("coord: manifest shard entry %d (%s) does not match the plan", e.Index, e.Shard)
			}
			// Trust the entry only if its log span still matches; a lost
			// or damaged span — or an entry naming any other file, such as
			// a per-shard file of an older directory layout — re-runs its
			// shard (idempotent, so harmless).
			if !c.verifySpan(e, size) {
				c.cfg.Logf("coord: shard %d (%s at %d) missing or damaged; re-running", e.Index, e.File, e.Offset)
				c.states[e.Index] = shardState{status: shardPending}
				continue
			}
			c.states[e.Index] = shardState{
				status: shardDone, off: e.Offset, bytes: e.Bytes, sum: e.Sum,
				records: e.Records, hits: e.Hits,
			}
			c.logEnd = max(c.logEnd, e.Offset+e.Bytes)
		case "merged":
			mergedLogged = true
		}
	}
	// Anything past the last verified span is an uncommitted tail (a
	// crash between the log write and the manifest append); cut it so the
	// next shard lands right after the committed ones.
	if size > c.logEnd {
		if err := c.log.Truncate(c.logEnd); err != nil {
			return err
		}
	}
	if !seenHeader {
		if err := c.man.append(manifestEntry{
			Type: "campaign", Fingerprint: c.fp,
			ShardSize: c.cfg.ShardSize, Shards: len(c.plan),
		}); err != nil {
			return err
		}
	}
	// A merged entry is only honored if every shard is still verified
	// done and the result file matches the concatenation; otherwise the
	// merge (atomic, idempotent) simply runs again when the last shard
	// lands.
	if mergedLogged && c.doneCount() == len(c.plan) {
		c.merged = true
		close(c.doneCh)
		return nil
	}
	if c.doneCount() == len(c.plan) {
		return c.mergeLocked()
	}
	return nil
}

// verifySpan reports whether a manifest shard entry's bytes are intact
// in the shard log of the given size.
func (c *Coordinator) verifySpan(e manifestEntry, size int64) bool {
	if e.File != shardLogName || e.Offset < 0 || e.Bytes < 0 || e.Bytes > size-e.Offset {
		return false
	}
	data := make([]byte, e.Bytes)
	if _, err := c.log.ReadAt(data, e.Offset); err != nil {
		return false
	}
	return checksum(data) == e.Sum
}

// doneCount counts completed shards. Callers hold mu or are in Open.
func (c *Coordinator) doneCount() int {
	done := 0
	for _, st := range c.states {
		if st.status == shardDone {
			done++
		}
	}
	return done
}

// ResultPath is the merged canonical record stream's location.
func (c *Coordinator) ResultPath() string {
	return filepath.Join(c.cfg.Dir, "records.jsonl")
}

// Done is closed once the campaign is complete and merged.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Crashed is closed when an injected fault killed the coordinator; the
// chaos harness restarts it with Open on the same directory.
func (c *Coordinator) Crashed() <-chan struct{} { return c.crashCh }

// Close releases the manifest and shard-log handles. The directory
// remains resumable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.man.close()
	if lerr := c.log.Close(); err == nil {
		err = lerr
	}
	return err
}

// crash simulates process death: all subsequent requests fail with 503
// and Crashed fires. Callers hold mu.
func (c *Coordinator) crash(site string) {
	if !c.crashed {
		c.cfg.Logf("coord: injected crash at %s", site)
		c.crashed = true
		c.man.close()
		c.log.Close()
		close(c.crashCh)
		// Wake long-poll stream waiters so they observe the crash (503)
		// now instead of sleeping out their poll window against a corpse.
		c.notifyCommit()
	}
}

// reap expires overdue leases; a leased shard with no live lease left
// returns to pending. Callers hold mu.
func (c *Coordinator) reap(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expiry) {
			c.cfg.Logf("coord: lease %s (%s, worker %s) expired", id, c.plan[l.index], l.worker)
			delete(c.leases, id)
		}
	}
	live := make(map[int]bool, len(c.leases))
	for _, l := range c.leases {
		live[l.index] = true
	}
	for i := range c.states {
		if c.states[i].status == shardLeased && !live[i] {
			c.states[i].status = shardPending
		}
	}
}

// grant creates a lease on shard index for worker. Callers hold mu.
func (c *Coordinator) grant(index int, worker string, now time.Time) *lease {
	c.nextID++
	l := &lease{
		id:     fmt.Sprintf("lease-%d", c.nextID),
		index:  index,
		worker: worker,
		expiry: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	c.states[index].status = shardLeased
	c.cfg.Logf("coord: leased %s to %s as %s", c.plan[index], worker, l.id)
	return l
}

// mergeLocked concatenates the shards' log spans in plan order into the
// canonical result stream, atomically, and logs the merge. Callers hold
// mu (or are in Open's single-threaded recovery).
func (c *Coordinator) mergeLocked() error {
	out := make([]byte, c.prefixLocked())
	var at int64
	for i, st := range c.states {
		data := out[at : at+st.bytes]
		if _, err := c.log.ReadAt(data, st.off); err != nil {
			return fmt.Errorf("coord: merge: %v", err)
		}
		if checksum(data) != st.sum {
			return fmt.Errorf("coord: merge: shard %d no longer matches its manifest checksum", i)
		}
		at += st.bytes
	}
	if err := jsonl.AtomicWriteFile(c.ResultPath(), out, 0o644); err != nil {
		return err
	}
	if err := c.man.append(manifestEntry{
		Type: "merged", File: filepath.Base(c.ResultPath()),
		Bytes: int64(len(out)), Sum: checksum(out),
	}); err != nil {
		return err
	}
	c.merged = true
	c.cfg.Logf("coord: merged %d shards into %s (%d bytes)", len(c.plan), c.ResultPath(), len(out))
	close(c.doneCh)
	c.notifyCommit()
	return nil
}

// notifyCommit wakes every long-poll stream waiter: the committed record
// prefix just grew (a shard in the prefix landed, or the merge finished).
// The channel swap is the whole broadcast — waiters hold only the old
// channel, so a stalled or dead client costs nothing here. Callers hold
// mu.
func (c *Coordinator) notifyCommit() {
	close(c.commitCh)
	c.commitCh = make(chan struct{})
}

// prefixLocked returns the byte length of the committed record prefix:
// the concatenation of done shards' records in plan order up to the first
// incomplete shard. Within one coordinator incarnation this only grows
// (shards in the prefix never revert), and its bytes are deterministic,
// so it is always a byte-prefix of the final canonical records.jsonl.
// Callers hold mu.
func (c *Coordinator) prefixLocked() int64 {
	var n int64
	for i := range c.states {
		if c.states[i].status != shardDone {
			return n
		}
		n += c.states[i].bytes
	}
	return n
}

// status snapshots progress. Callers hold mu.
func (c *Coordinator) statusLocked() Status {
	st := Status{
		Campaign:      c.camp.Name,
		Fingerprint:   c.fp,
		Shards:        len(c.plan),
		Merged:        c.merged,
		StreamClients: c.streams,
		StreamBytes:   c.prefixLocked(),
		StreamEvicted: c.streamEvicted,
		StreamRefused: c.streamRefused,
	}
	workers := make(map[string]bool, len(c.leases))
	for _, l := range c.leases {
		workers[l.worker] = true
	}
	st.ActiveWorkers = len(workers)
	for _, s := range c.states {
		switch s.status {
		case shardPending:
			st.Pending++
		case shardLeased:
			st.Leased++
		case shardDone:
			st.Done++
			st.Records += s.records
			st.Hits += s.hits
		}
	}
	st.QueueDepth = st.Pending
	st.WantWorkers = st.Pending + st.Leased
	return st
}

// Status snapshots the coordinator's progress.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(c.cfg.Now())
	return c.statusLocked()
}
