package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// ShardRef identifies one contiguous instance range [Lo, Hi) of a grid
// cell — the unit of work the campaign coordinator leases to workers. A
// shard's records depend only on the resolved campaign configuration and
// the (sampler, variant, instance) triples it spans, never on which
// worker executes it or when, which is what makes re-executing an
// expired lease idempotent: the re-run produces byte-identical JSONL.
type ShardRef struct {
	Sampler string `json:"sampler"`
	Variant string `json:"variant"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
}

// String renders the shard for logs and lease diagnostics.
func (s ShardRef) String() string {
	return fmt.Sprintf("%s/%s[%d,%d)", s.Sampler, s.Variant, s.Lo, s.Hi)
}

// Resolve applies the option overrides and defaults Run would apply and
// validates the result, returning the fully resolved campaign whose grid
// Plan and RunShard decompose. Coordinator and workers must resolve the
// same campaign: Fingerprint pins that agreement.
func Resolve(c Campaign, opt Options) (Campaign, error) {
	if opt.Instances > 0 {
		c.Instances = opt.Instances
	}
	if opt.Seed != 0 {
		c.Seed = opt.Seed
	}
	if opt.MaxStates > 0 {
		c.MaxStates = opt.MaxStates
	}
	if c.MaxResamples <= 0 {
		c.MaxResamples = defaultMaxResamples
	}
	if err := c.validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// planCells lays out the resolved campaign's grid cells in deterministic
// (sampler, variant) order with their clamped instance budgets.
func planCells(c Campaign) []cell {
	var cells []cell
	for si := range c.Samplers {
		for vi := range c.Variants {
			instances := c.Instances
			if t := c.Samplers[si].Total; t > 0 && instances > t {
				instances = t
			}
			cells = append(cells, cell{si: si, vi: vi, instances: instances})
		}
	}
	return cells
}

// Plan decomposes a resolved campaign into its shard list: cells in grid
// order, each cut into ranges of shardSize instances. Concatenating the
// shards' record streams in plan order reproduces the single-process
// Run stream exactly, for any shardSize.
func Plan(c Campaign, shardSize int) ([]ShardRef, error) {
	if shardSize <= 0 {
		return nil, fmt.Errorf("campaign: shard size must be positive, got %d", shardSize)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	var refs []ShardRef
	for _, cl := range planCells(c) {
		smp, v := c.Samplers[cl.si].Name, c.Variants[cl.vi].Name
		for lo := 0; lo < cl.instances; lo += shardSize {
			hi := lo + shardSize
			if hi > cl.instances {
				hi = cl.instances
			}
			refs = append(refs, ShardRef{Sampler: smp, Variant: v, Lo: lo, Hi: hi})
		}
	}
	return refs, nil
}

// Fingerprint canonically summarizes everything a resolved campaign's
// record stream depends on. A coordinator and its workers exchange it on
// every lease: a mismatch (different seed, budgets, grid or schedules)
// would silently corrupt the merged stream, so it is rejected up front.
func Fingerprint(c Campaign) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign=%s seed=%d n=%d instances=%d max-states=%d max-resamples=%d",
		c.Name, c.Seed, c.N, c.Instances, c.MaxStates, c.MaxResamples)
	b.WriteString(" samplers=")
	for i, smp := range c.Samplers {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s/%d", smp.Name, smp.Total)
	}
	b.WriteString(" variants=")
	for i, v := range c.Variants {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.Name)
		if v.Schedule != nil {
			fmt.Fprintf(&b, "+%s", v.Schedule.Name())
			fmt.Fprintf(&b, "+%s", v.Oracle.String())
		}
	}
	if c.NewCheck != nil {
		b.WriteString(" check")
	}
	return b.String()
}

// RunShard executes one shard of a resolved campaign sequentially,
// returning the records of instances [Lo, Hi) exactly as they appear in
// the single-process Run stream. Cancelling ctx stops between instances
// (the current instance finishes), returning the context error; a shard
// is all-or-nothing for the coordinator, so a cancelled shard is simply
// re-leased. onInstance, if non-nil, runs before each instance — the
// worker's drain and fault-injection seam.
func RunShard(ctx context.Context, c Campaign, ref ShardRef, onInstance func(inst int) error) ([]Record, error) {
	si, vi := -1, -1
	for i := range c.Samplers {
		if c.Samplers[i].Name == ref.Sampler {
			si = i
		}
	}
	for i := range c.Variants {
		if c.Variants[i].Name == ref.Variant {
			vi = i
		}
	}
	if si < 0 || vi < 0 {
		return nil, fmt.Errorf("campaign: shard %s names no cell of campaign %q", ref, c.Name)
	}
	instances := c.Instances
	if t := c.Samplers[si].Total; t > 0 && instances > t {
		instances = t
	}
	if ref.Lo < 0 || ref.Hi > instances || ref.Lo >= ref.Hi {
		return nil, fmt.Errorf("campaign: shard %s lies outside the cell's %d instances", ref, instances)
	}
	w := newWorkerArena(&c)
	recs := make([]Record, 0, ref.Hi-ref.Lo)
	for inst := ref.Lo; inst < ref.Hi; inst++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if onInstance != nil {
			if err := onInstance(inst); err != nil {
				return nil, err
			}
		}
		rec, err := safeInstance(&c, &c.Samplers[si], &c.Variants[vi], si, vi, inst, w)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// MarshalRecords encodes records exactly as the JSONL sink writes them —
// one json.Encoder line per record — so a worker's upload, the
// coordinator's shard log and the merged stream are all byte-compatible
// with a single-process Run into a JSONLSink.
func MarshalRecords(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalRecords parses a complete shard upload: every line must be a
// valid record (a torn upload is a transport bug, not a resumable file).
func UnmarshalRecords(data []byte) ([]Record, error) {
	var recs []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("campaign: bad shard record %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
