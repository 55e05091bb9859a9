package campaign

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/jsonl"
)

// Move is the JSONL form of one cycle move.
type Move struct {
	Agent int   `json:"agent"`
	Drop  []int `json:"drop,omitempty"`
	Add   []int `json:"add,omitempty"`
}

// Record is the result of searching one instance, the unit streamed to
// sinks in deterministic (sampler, variant, instance) order. Misses are
// compact progress records; hits additionally carry the canonical
// ownership-aware start-network encoding (graph.AppendOwnedRows, hex) and
// the found cycle as its first state plus move trace.
type Record struct {
	Campaign string `json:"campaign"`
	Sampler  string `json:"sampler"`
	Variant  string `json:"variant"`
	Instance int    `json:"instance"`
	// Seed is the instance's derived stream (attempt 0); resample redraws
	// derive fresh streams from the same triple.
	Seed int64 `json:"seed"`
	// N is the searched instance's agent count (0 when no sample
	// materialized).
	N int `json:"n"`
	// Searched reports whether a start network was actually searched; a
	// false value means every redraw of a degenerate sample failed, and
	// the instance consumed none of the search budget's meaning.
	Searched bool `json:"searched"`
	// Resamples counts degenerate draws redrawn from fresh derived seeds.
	Resamples int `json:"resamples"`
	// States is the number of distinct states the cycle search interned.
	States int `json:"states"`
	// Hit reports a found best-response cycle (or accepted candidate).
	Hit bool `json:"hit"`
	// Start is the hex-encoded canonical start network of a hit.
	Start string `json:"start,omitempty"`
	// CycleStart is the hex-encoded first state of the found cycle
	// (equal to Start for candidate-check hits, whose cycle starts at the
	// candidate itself).
	CycleStart string `json:"cycleStart,omitempty"`
	// Moves is the cycle's move trace: applying them in order to
	// CycleStart returns to CycleStart.
	Moves []Move `json:"moves,omitempty"`
}

// EncodeGraph returns the canonical hex form of g's ownership-aware state
// encoding (graph.AppendOwnedRows): 16 hex digits per row word. Together
// with the record's agent count it identifies the network exactly.
func EncodeGraph(g *graph.Graph) string {
	words := g.AppendOwnedRows(make([]uint64, 0, graph.EncodedWords(g.N())))
	buf := make([]byte, 0, 8*len(words))
	for _, w := range words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return hex.EncodeToString(buf)
}

// DecodeGraph reverses EncodeGraph for an n-agent network. The encoding
// may come from an untrusted record, so it is checked before loading: the
// right length for n, no bits past agent n-1, no self-loops and no edge
// claimed by both endpoints.
func DecodeGraph(n int, s string) (*graph.Graph, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("campaign: bad state encoding: %v", err)
	}
	// A valid encoding holds at least 8 bytes per agent, so n > len(raw)
	// is rejected before EncodedWords(n) could overflow.
	if n < 0 || n > len(raw) || len(raw) != 8*graph.EncodedWords(n) {
		return nil, fmt.Errorf("campaign: state encoding is %d bytes, not a valid length for n=%d", len(raw), n)
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	w := (n + 63) / 64
	row := func(u int) graph.Bitset { return graph.Bitset(words[u*w : (u+1)*w]) }
	for u := 0; u < n; u++ {
		r := row(u)
		if n%64 != 0 && r[w-1]>>(n%64) != 0 {
			return nil, fmt.Errorf("campaign: state encoding row %d names agents beyond n=%d", u, n)
		}
		if r.Has(u) {
			return nil, fmt.Errorf("campaign: state encoding has a self-loop at %d", u)
		}
		both := -1
		r.ForEach(func(v int) {
			if both < 0 && row(v).Has(u) {
				both = v
			}
		})
		if both >= 0 {
			return nil, fmt.Errorf("campaign: state encoding has edge {%d,%d} owned by both ends", u, both)
		}
	}
	g := graph.New(n)
	g.LoadOwnedRows(words)
	return g, nil
}

// encodeMoves converts a move trace into its JSONL form.
func encodeMoves(ms []game.Move) []Move {
	out := make([]Move, len(ms))
	for i, m := range ms {
		out[i] = Move{
			Agent: m.Agent,
			Drop:  append([]int(nil), m.Drop...),
			Add:   append([]int(nil), m.Add...),
		}
	}
	return out
}

// GameMoves converts the record's trace back into game moves.
func (r Record) GameMoves() []game.Move {
	out := make([]game.Move, len(r.Moves))
	for i, m := range r.Moves {
		out[i] = game.Move{Agent: m.Agent, Drop: m.Drop, Add: m.Add}
	}
	return out
}

// DecodeStart returns the hit's start network.
func (r Record) DecodeStart() (*graph.Graph, error) {
	if !r.Hit {
		return nil, fmt.Errorf("campaign: record %s/%s #%d is not a hit", r.Sampler, r.Variant, r.Instance)
	}
	return DecodeGraph(r.N, r.Start)
}

// DecodeCycle reconstructs the hit's best-response cycle by replaying the
// move trace from the cycle's first state. Every move is checked before it
// is applied — agent, drops and adds in [0,N), no self-loops, each drop an
// existing edge and each add a non-edge at that point of the replay — and
// the trajectory must close: exactly for ownership-aware games, up to
// ownership for ownership-blind ones, whose stored states carry the
// interned store's canonical orientation. So a decoded cycle is
// structurally sound even from an untrusted record file, and a malformed
// one is an error, never a panic.
func (r Record) DecodeCycle() (*cycles.FoundCycle, error) {
	if !r.Hit {
		return nil, fmt.Errorf("campaign: record %s/%s #%d is not a hit", r.Sampler, r.Variant, r.Instance)
	}
	g, err := DecodeGraph(r.N, r.CycleStart)
	if err != nil {
		return nil, err
	}
	fc := &cycles.FoundCycle{Moves: r.GameMoves()}
	cur := g.Clone()
	for i, m := range fc.Moves {
		if err := checkMove(cur, m); err != nil {
			return nil, fmt.Errorf("campaign: record %s/%s #%d: move %d: %v", r.Sampler, r.Variant, r.Instance, i, err)
		}
		fc.States = append(fc.States, cur.Clone())
		game.Apply(cur, m)
	}
	if !cur.Equal(g) && !cur.EqualUnowned(g) {
		return nil, fmt.Errorf("campaign: record %s/%s #%d: cycle trace does not close", r.Sampler, r.Variant, r.Instance)
	}
	return fc, nil
}

// checkMove reports why game.Apply would reject (panic on) m in state g:
// drops are applied first, so an add may re-add a vertex the same move
// dropped, but no vertex may be dropped or added twice.
func checkMove(g *graph.Graph, m game.Move) error {
	n := g.N()
	if m.Agent < 0 || m.Agent >= n {
		return fmt.Errorf("agent %d outside [0,%d)", m.Agent, n)
	}
	for i, v := range m.Drop {
		switch {
		case v < 0 || v >= n:
			return fmt.Errorf("drop %d outside [0,%d)", v, n)
		case v == m.Agent:
			return fmt.Errorf("drop of self-loop at %d", v)
		case !g.HasEdge(m.Agent, v) || slices.Contains(m.Drop[:i], v):
			return fmt.Errorf("drop of non-edge {%d,%d}", m.Agent, v)
		}
	}
	for i, v := range m.Add {
		switch {
		case v < 0 || v >= n:
			return fmt.Errorf("add %d outside [0,%d)", v, n)
		case v == m.Agent:
			return fmt.Errorf("add of self-loop at %d", v)
		case g.HasEdge(m.Agent, v) && !slices.Contains(m.Drop, v) || slices.Contains(m.Add[:i], v):
			return fmt.Errorf("add of existing edge {%d,%d}", m.Agent, v)
		}
	}
	return nil
}

// Sink consumes the per-instance records of a campaign run. Run delivers
// records in deterministic (sampler, variant, instance) order from a
// single goroutine, so sinks need no locking.
type Sink interface {
	Write(rec Record) error
	// Close flushes buffered output and releases resources. Run closes
	// every sink it was handed, whether or not the run succeeded.
	Close() error
}

// FuncSink adapts a callback into a Sink, for in-memory consumers.
type FuncSink func(rec Record) error

func (f FuncSink) Write(rec Record) error { return f(rec) }

func (f FuncSink) Close() error { return nil }

// JSONLSink streams records as one JSON object per line, the campaign's
// checkpointable on-disk form.
type JSONLSink struct {
	jsonl.BufWriter
	enc *json.Encoder
	// fromCheckpoint marks the append-mode sink of ResumeJSONL: its file
	// already contains the recovered records, so Run must not re-write
	// them (every other sink receives the complete stream).
	fromCheckpoint bool
}

// skipResumed implements the runner's resumeSkipper probe.
func (s *JSONLSink) skipResumed() bool { return s.fromCheckpoint }

// NewJSONLSink writes JSONL records to w; if w is an io.Closer it is
// closed with the sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{BufWriter: jsonl.NewBufWriter(w)}
	s.enc = json.NewEncoder(s.W)
	return s
}

// CreateJSONL creates (or truncates) a JSONL record file.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f), nil
}

func (s *JSONLSink) Write(rec Record) error { return s.enc.Encode(rec) }

// cellKey identifies one instance across the grid, the checkpoint's unit.
type cellKey struct {
	sampler, variant string
	instance         int
}

// Checkpoint holds the instances recovered from a partial JSONL record
// file. Passed to Run via Options.Done, those instances are folded into
// the summary (and counted against Options.MaxHits) from their recorded
// results instead of being re-searched; their records still flow to the
// sinks in order, so in-memory consumers (hit collectors, SweepFamily)
// see the complete stream — only the append-mode sink of ResumeJSONL
// skips them.
type Checkpoint struct {
	recs map[cellKey]Record
	// goodBytes is the file offset after the last complete, parseable
	// line; anything beyond it is a truncated tail.
	goodBytes int64
}

// Len returns the number of recovered instances.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	return len(c.recs)
}

// record returns the recovered record of the instance.
func (c *Checkpoint) record(sampler, variant string, instance int) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	rec, ok := c.recs[cellKey{sampler, variant, instance}]
	return rec, ok
}

// String summarizes the checkpoint for logs.
func (c *Checkpoint) String() string {
	return fmt.Sprintf("checkpoint(%d instances)", c.Len())
}

// LoadCheckpoint parses a (possibly truncated) campaign JSONL record file
// with the shared truncated-tail semantics of the ensemble spine: complete
// lines become recovered instances, everything from the first torn or
// unparseable line on is ignored, so resuming re-runs exactly the
// instances the file does not fully record.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	cp := &Checkpoint{recs: make(map[cellKey]Record)}
	good, err := jsonl.ScanFile(path, func(line []byte) bool {
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Campaign == "" {
			return false
		}
		cp.recs[cellKey{rec.Sampler, rec.Variant, rec.Instance}] = rec
		return true
	})
	if err != nil {
		return nil, err
	}
	cp.goodBytes = good
	return cp, nil
}

// ResumeJSONL prepares a partial campaign record file for resumption: it
// loads the checkpoint, truncates the torn tail and returns an append-mode
// sink. Running with the checkpoint in Options.Done and the sink then
// completes the file exactly as an uninterrupted run would have written
// it.
func ResumeJSONL(path string) (*Checkpoint, *JSONLSink, error) {
	cp, err := LoadCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := jsonl.OpenResume(path, cp.goodBytes)
	if err != nil {
		return nil, nil, err
	}
	sink := NewJSONLSink(f)
	sink.fromCheckpoint = true
	return cp, sink, nil
}
