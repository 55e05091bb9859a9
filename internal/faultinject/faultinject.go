// Package faultinject is the deterministic fault seam of the campaign
// service: coordinator, worker and stream client ask an Injector
// before every fallible operation whether a scheduled fault fires there.
// Schedules are pure functions of a seed, so a chaos run — crashes before
// commit, torn tails, dropped heartbeats, stalled workers, duplicate lease
// grants — is exactly reproducible, and the chaos suite can sweep seeds
// and assert that the merged record stream survives every one of them
// byte-for-byte. A nil *Injector is the production no-op: every Fire
// returns None.
package faultinject

import (
	"sync"

	"ncg/internal/rng"
)

// Point names one fault site. Call sites fire the point every time they
// pass it; the injector counts occurrences per point, so a schedule can
// target "the third manifest append" deterministically.
type Point string

// The fault sites of the campaign service.
const (
	// ShardWrite guards the coordinator appending a completed shard's
	// records to the shard log. Crash loses the upload before anything
	// reaches disk; Torn fsyncs a prefix of the records to the log and
	// then crashes, leaving an uncommitted log tail recovery must cut.
	ShardWrite Point = "shard-write"
	// ManifestAppend guards the coordinator committing a manifest entry
	// after the shard's records are durable in the log. Crash leaves an
	// uncommitted (complete but unvouched) log tail; Torn leaves a torn
	// manifest tail as well.
	ManifestAppend Point = "manifest-append"
	// LeaseGrant guards the coordinator handing a shard to a worker.
	// Duplicate re-grants a shard that is already leased.
	LeaseGrant Point = "lease-grant"
	// Heartbeat guards the worker's lease renewal. Drop loses one
	// heartbeat; Crash silences the heartbeat loop for the rest of the
	// lease, so the lease expires under a live worker.
	Heartbeat Point = "heartbeat"
	// WorkerInstance guards the worker between instances of a shard.
	// Crash abandons the shard without releasing the lease (a dead
	// worker); Stall pauses past the lease TTL and then continues.
	WorkerInstance Point = "worker-instance"
	// StreamChunk guards the coordinator writing one chunk of the
	// committed record prefix to a stream client. Crash kills the
	// coordinator mid-stream (clients must resume against the restarted
	// process); Drop severs the connection mid-chunk, so the client sees
	// a truncated body and must discard the partial chunk — its cursor
	// only ever advances past fully-read chunks.
	StreamChunk Point = "stream-chunk"
	// StreamClient guards the watch client between stream reads. Crash
	// drops the connection mid-read and reconnects with the last acked
	// cursor; Stall stops reading past the server's write deadline, so
	// the coordinator evicts the client; Duplicate reconnects immediately
	// without backoff (one pulse of a reconnect storm).
	StreamClient Point = "stream-client"
)

// Kind is the fault fired at a point: None means the operation proceeds.
type Kind int

const (
	// None fires no fault.
	None Kind = iota
	// Crash simulates process death before the operation commits.
	Crash
	// Torn persists only a prefix of the operation's bytes, then crashes.
	Torn
	// Drop loses the message silently.
	Drop
	// Stall delays the operation past the lease TTL.
	Stall
	// Duplicate performs the operation twice (e.g. re-grants a lease).
	Duplicate
)

// String names the kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Torn:
		return "torn"
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case Duplicate:
		return "duplicate"
	}
	return "unknown"
}

// Schedule maps a point's occurrence index (0-based) to the fault fired
// there. Occurrences without an entry proceed normally.
type Schedule map[Point]map[int]Kind

// Injector fires the faults of one schedule. It is safe for concurrent
// use; a nil *Injector never fires.
type Injector struct {
	mu    sync.Mutex
	sched Schedule
	count map[Point]int
	fired []Firing
}

// Firing records one fired fault for test diagnostics.
type Firing struct {
	Point      Point
	Occurrence int
	Kind       Kind
}

// New returns an injector firing the given schedule.
func New(sched Schedule) *Injector {
	return &Injector{sched: sched, count: make(map[Point]int)}
}

// Fire reports the fault scheduled for this occurrence of p, advancing
// the point's occurrence counter. A nil receiver reports None.
func (in *Injector) Fire(p Point) Kind {
	if in == nil {
		return None
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.count[p]
	in.count[p] = i + 1
	k := in.sched[p][i]
	if k != None {
		in.fired = append(in.fired, Firing{Point: p, Occurrence: i, Kind: k})
	}
	return k
}

// Fired returns the faults fired so far, in firing order.
func (in *Injector) Fired() []Firing {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Firing(nil), in.fired...)
}

// pointKinds lists, per point, the kinds a seeded schedule may fire there
// — the faults that make sense at that site.
var pointKinds = []struct {
	p     Point
	kinds []Kind
}{
	{ShardWrite, []Kind{Crash, Torn}},
	{ManifestAppend, []Kind{Crash, Torn}},
	{LeaseGrant, []Kind{Duplicate}},
	{Heartbeat, []Kind{Drop, Crash}},
	{WorkerInstance, []Kind{Crash, Stall}},
	// The stream points are appended, never inserted: each point's
	// schedule stream is seeded by its index here, so appending extends
	// seeded schedules to the new sites without changing what any
	// existing seed fires at the old ones.
	{StreamChunk, []Kind{Crash, Drop}},
	{StreamClient, []Kind{Crash, Stall, Duplicate}},
}

// Seeded derives a deterministic schedule from a seed: for each fault
// site, each of the first horizon occurrences fires one of the site's
// applicable kinds with probability numer/denom. The same seed always
// yields the same schedule, so a failing chaos run reproduces exactly.
func Seeded(seed int64, horizon int, numer, denom uint64) Schedule {
	sched := make(Schedule)
	for pi, pk := range pointKinds {
		s := rng.NewStream(uint64(rng.Seed(seed, uint64(pi))))
		for occ := 0; occ < horizon; occ++ {
			if s.Next()%denom < numer {
				k := pk.kinds[s.Next()%uint64(len(pk.kinds))]
				m := sched[pk.p]
				if m == nil {
					m = make(map[int]Kind)
					sched[pk.p] = m
				}
				m[occ] = k
			}
		}
	}
	return sched
}
