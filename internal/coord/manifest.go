package coord

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"ncg/internal/campaign"
	"ncg/internal/jsonl"
)

// manifestEntry is one line of the coordinator's append-only manifest — a
// write-ahead log of shard completions. The manifest commits a shard only
// after its records are appended and fsynced to the shard log, so
// recovery trusts a "shard" entry exactly when the log span it names
// still matches its recorded length and checksum. The file shares the
// repository's truncated-tail JSONL semantics: a torn tail (a crash
// mid-append) is cut on recovery and the lost entries' shards simply
// re-run.
type manifestEntry struct {
	// Type is "campaign" (the header), "shard" (a completed shard) or
	// "merged" (the final stream was written).
	Type string `json:"type"`
	// Header fields: the resolved campaign fingerprint and the shard
	// decomposition it was planned with. A resume with a different
	// configuration is rejected, never silently mixed.
	Fingerprint string `json:"fingerprint,omitempty"`
	ShardSize   int    `json:"shardSize,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	// Shard fields: the plan index and the identity of the persisted
	// records: File names the shard log (entries naming anything else
	// are re-run), Offset and Bytes the span inside it.
	Index   int               `json:"index,omitempty"`
	Shard   campaign.ShardRef `json:"shard,omitempty"`
	File    string            `json:"file,omitempty"`
	Offset  int64             `json:"offset,omitempty"`
	Bytes   int64             `json:"bytes,omitempty"`
	Sum     string            `json:"sum,omitempty"`
	Records int               `json:"records,omitempty"`
	Hits    int               `json:"hits,omitempty"`
}

// shardLogName is the shard log's file name inside the coordinator
// directory.
const shardLogName = "shards.log"

// checksum is the manifest's integrity hash (FNV-64a over the full
// content) — not cryptographic, just torn/stale-write detection.
func checksum(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// manifest owns the append handle of the manifest file. Appends fsync
// before reporting success, so a committed entry survives a crash; a
// crash mid-append leaves a torn tail the next open truncates.
type manifest struct {
	path string
	f    *os.File
}

// openManifest loads the manifest at path (creating it if missing),
// returning the recovered entries in order and the manifest positioned
// for crash-safe appends. The torn tail, if any, is truncated — exactly
// the jsonl.OpenResume semantics the record checkpoints use.
func openManifest(path string) (*manifest, []manifestEntry, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := jsonl.AtomicWriteFile(path, nil, 0o644); err != nil {
			return nil, nil, err
		}
	}
	var entries []manifestEntry
	good, err := jsonl.ScanFile(path, func(line []byte) bool {
		var e manifestEntry
		if json.Unmarshal(line, &e) != nil || e.Type == "" {
			return false
		}
		entries = append(entries, e)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	f, err := jsonl.OpenResume(path, good)
	if err != nil {
		return nil, nil, err
	}
	return &manifest{path: path, f: f}, entries, nil
}

// append commits one entry: a full JSON line, fsynced before returning.
func (m *manifest) append(e manifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := m.f.Write(line); err != nil {
		return err
	}
	return m.f.Sync()
}

// appendTorn writes only a prefix of the entry's line and syncs it — the
// fault-injection path simulating a crash mid-append. The torn bytes are
// exactly what a real power cut could leave, and the next openManifest
// must cut them.
func (m *manifest) appendTorn(e manifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	torn := line[:len(line)/2]
	if _, err := m.f.Write(torn); err != nil {
		return err
	}
	return m.f.Sync()
}

// close releases the append handle.
func (m *manifest) close() error { return m.f.Close() }
