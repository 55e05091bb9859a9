package campaign

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ncg/internal/graph"
)

// encodeRows hex-encodes raw owned-row words, for hand-built (possibly
// malformed) state encodings.
func encodeRows(rows ...uint64) string {
	buf := make([]byte, 0, 8*len(rows))
	for _, w := range rows {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return hex.EncodeToString(buf)
}

// TestDecodeUntrustedRecord: decoding a hit never panics on untrusted
// input. Malformed moves and state encodings come back as errors; the one
// well-formed record decodes.
func TestDecodeUntrustedRecord(t *testing.T) {
	path := EncodeGraph(graph.Path(4)) // 0-1-2-3, edge {i,i+1} owned by i
	if path != encodeRows(0x2, 0x4, 0x8, 0) {
		t.Fatalf("Path(4) encodes as %s", path)
	}
	swapBack := []Move{{Agent: 0, Drop: []int{1}, Add: []int{2}}, {Agent: 0, Drop: []int{2}, Add: []int{1}}}
	for _, tc := range []struct {
		name  string
		n     int
		state string
		moves []Move
		ok    bool
	}{
		{name: "well-formed", n: 4, state: path, moves: swapBack, ok: true},
		{name: "agent out of range", n: 4, state: path, moves: []Move{{Agent: 9, Drop: []int{1}, Add: []int{2}}}},
		{name: "negative agent", n: 4, state: path, moves: []Move{{Agent: -1}}},
		{name: "negative drop", n: 4, state: path, moves: []Move{{Agent: 0, Drop: []int{-1}}}},
		{name: "drop out of range", n: 4, state: path, moves: []Move{{Agent: 0, Drop: []int{4}}}},
		{name: "add self-loop", n: 4, state: path, moves: []Move{{Agent: 0, Add: []int{0}}}},
		{name: "drop self-loop", n: 4, state: path, moves: []Move{{Agent: 1, Drop: []int{1}}}},
		{name: "add out of range", n: 4, state: path, moves: []Move{{Agent: 0, Add: []int{7}}}},
		{name: "drop non-edge", n: 4, state: path, moves: []Move{{Agent: 0, Drop: []int{3}}}},
		{name: "drop twice", n: 4, state: path, moves: []Move{{Agent: 0, Drop: []int{1, 1}}}},
		{name: "add existing edge", n: 4, state: path, moves: []Move{{Agent: 1, Add: []int{2}}}},
		{name: "add twice", n: 4, state: path, moves: []Move{{Agent: 0, Add: []int{2, 2}}}},
		{name: "later move illegal", n: 4, state: path, moves: []Move{swapBack[0], swapBack[0]}},
		{name: "trace does not close", n: 4, state: path, moves: swapBack[:1]},
		{name: "negative n", n: -1, state: "", moves: nil},
		{name: "overflowing n", n: 1 << 40, state: "", moves: nil},
		{name: "bad hex", n: 4, state: "zz", moves: swapBack},
		{name: "short encoding", n: 4, state: encodeRows(0x2, 0x4, 0x8), moves: swapBack},
		{name: "bit past n", n: 4, state: encodeRows(0x2|1<<5, 0x4, 0x8, 0), moves: swapBack},
		{name: "encoded self-loop", n: 4, state: encodeRows(0x3, 0x4, 0x8, 0), moves: swapBack},
		{name: "edge owned twice", n: 4, state: encodeRows(0x2, 0x5, 0x8, 0), moves: swapBack},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := Record{Sampler: "s", Variant: "v", N: tc.n, Hit: true, Start: tc.state, CycleStart: tc.state, Moves: tc.moves}
			fc, err := rec.DecodeCycle()
			if tc.ok {
				if err != nil {
					t.Fatalf("well-formed record rejected: %v", err)
				}
				if len(fc.States) != len(tc.moves) {
					t.Fatalf("decoded %d states, want %d", len(fc.States), len(tc.moves))
				}
				if _, err := rec.DecodeStart(); err != nil {
					t.Fatalf("DecodeStart: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("DecodeCycle accepted a malformed record")
			}
		})
	}
	for _, state := range []string{"zz", encodeRows(0x2|1<<5, 0x4, 0x8, 0), encodeRows(0x3, 0x4, 0x8, 0), encodeRows(0x2, 0x5, 0x8, 0)} {
		if _, err := (Record{N: 4, Hit: true, Start: state}).DecodeStart(); err == nil {
			t.Fatalf("DecodeStart accepted malformed encoding %s", state)
		}
	}
}
