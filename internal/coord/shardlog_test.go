package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/faultinject"
)

// shardUpload runs shard i of c's plan in-process and returns its JSONL
// records, byte-for-byte what a worker would upload.
func shardUpload(t *testing.T, c *Coordinator, i int) []byte {
	t.Helper()
	recs, err := campaign.RunShard(context.Background(), c.camp, c.plan[i], nil)
	if err != nil {
		t.Fatalf("RunShard %d: %v", i, err)
	}
	data, err := campaign.MarshalRecords(recs)
	if err != nil {
		t.Fatalf("MarshalRecords: %v", err)
	}
	return data
}

// postComplete sends one /v1/complete through c's handler and returns the
// HTTP status.
func postComplete(t *testing.T, c *Coordinator, i int, data []byte) int {
	t.Helper()
	body, err := json.Marshal(CompleteRequest{Worker: "hand", Index: i, Records: string(data)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
	return rec.Code
}

// fileSize is the current length of path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// finishAndCompare runs workers against c until it merges and checks the
// merged stream against the single-process run.
func finishAndCompare(t *testing.T, c *Coordinator, want []byte) {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	runWorkers(t, srv.URL, 2)
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign did not complete; status %+v", c.Status())
	}
	got, err := os.ReadFile(c.ResultPath())
	if err != nil {
		t.Fatalf("read merged stream: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged stream differs from single-process run: %d vs %d bytes", len(got), len(want))
	}
}

// TestShardLogTornTailIsCut: a crash after part of a shard reached the log
// but before the manifest vouched for it leaves an uncommitted tail. Open
// cuts it, the next shard lands right after the last committed one, and
// the merge is byte-identical to the single-process run. A fresh
// directory holds the one log, no per-shard files.
func TestShardLogTornTailIsCut(t *testing.T) {
	want := singleProcessBytes(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, shardLogName)
	cfg := Config{Campaign: testCampaign(), Dir: dir, ShardSize: 3, LeaseTTL: time.Second}
	torn := cfg
	torn.Injector = faultinject.New(faultinject.Schedule{faultinject.ShardWrite: {2: faultinject.Torn}})
	c, err := Open(torn)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shards")); !os.IsNotExist(err) {
		t.Fatalf("fresh directory has a shards/ subdirectory (stat: %v)", err)
	}
	for i := 0; i < 2; i++ {
		if code := postComplete(t, c, i, shardUpload(t, c, i)); code != http.StatusOK {
			t.Fatalf("complete %d: status %d", i, code)
		}
	}
	committed := fileSize(t, logPath)
	if code := postComplete(t, c, 2, shardUpload(t, c, 2)); code != http.StatusServiceUnavailable {
		t.Fatalf("torn shard write: status %d, want 503", code)
	}
	select {
	case <-c.Crashed():
	default:
		t.Fatalf("torn shard write did not crash the coordinator")
	}
	if fileSize(t, logPath) <= committed {
		t.Fatalf("torn write left no tail to cut")
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got := fileSize(t, logPath); got != committed {
		t.Fatalf("log is %d bytes after recovery, want the committed %d", got, committed)
	}
	if st := c2.Status(); st.Done != 2 {
		t.Fatalf("after recovery, done = %d, want 2", st.Done)
	}
	if code := postComplete(t, c2, 2, shardUpload(t, c2, 2)); code != http.StatusOK {
		t.Fatalf("complete 2 after recovery: status %d", code)
	}
	c2.mu.Lock()
	off := c2.states[2].off
	c2.mu.Unlock()
	if off != committed {
		t.Fatalf("shard after the cut tail landed at %d, want %d", off, committed)
	}
	finishAndCompare(t, c2, want)
}

// TestLegacyShardFilesArePended: a directory written by the per-shard-file
// layout (manifest entries naming shards/shard-N.jsonl) opens without
// error; its shards re-run and the merge is byte-identical.
func TestLegacyShardFilesArePended(t *testing.T) {
	want := singleProcessBytes(t)
	dir := t.TempDir()
	camp, err := campaign.Resolve(testCampaign(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.Plan(camp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		t.Fatal(err)
	}
	var man bytes.Buffer
	enc := json.NewEncoder(&man)
	enc.Encode(manifestEntry{Type: "campaign", Fingerprint: campaign.Fingerprint(camp), ShardSize: 3, Shards: len(plan)})
	for i := 0; i < 3; i++ {
		recs, err := campaign.RunShard(context.Background(), camp, plan[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := campaign.MarshalRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join("shards", fmt.Sprintf("shard-%06d.jsonl", i))
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		enc.Encode(manifestEntry{Type: "shard", Index: i, Shard: plan[i], File: name,
			Bytes: int64(len(data)), Sum: checksum(data), Records: len(recs)})
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), man.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(Config{Campaign: testCampaign(), Dir: dir, ShardSize: 3, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("Open of a per-shard-file directory: %v", err)
	}
	defer c.Close()
	if st := c.Status(); st.Done != 0 || st.Pending != st.Shards {
		t.Fatalf("per-shard-file entries were trusted: %+v", st)
	}
	finishAndCompare(t, c, want)
}

// TestShardLogFlippedByteRependsOneShard: one flipped byte inside a
// committed log span re-pends exactly that shard; the others stay done
// and the merge is byte-identical.
func TestShardLogFlippedByteRependsOneShard(t *testing.T) {
	want := singleProcessBytes(t)
	dir := t.TempDir()
	cfg := Config{Campaign: testCampaign(), Dir: dir, ShardSize: 3, LeaseTTL: time.Second}
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if code := postComplete(t, c, i, shardUpload(t, c, i)); code != http.StatusOK {
			t.Fatalf("complete %d: status %d", i, code)
		}
	}
	c.mu.Lock()
	st1 := c.states[1]
	c.mu.Unlock()
	c.Close()

	logPath := filepath.Join(dir, shardLogName)
	size := fileSize(t, logPath)
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := st1.off + st1.bytes/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	c2.mu.Lock()
	var done []int
	for i, st := range c2.states {
		if st.status == shardDone {
			done = append(done, i)
		}
	}
	c2.mu.Unlock()
	if len(done) != 2 || done[0] != 0 || done[1] != 2 {
		t.Fatalf("done shards after the flip: %v, want [0 2]", done)
	}
	if got := fileSize(t, logPath); got != size {
		t.Fatalf("log cut to %d bytes; the damaged span is not its tail (%d bytes)", got, size)
	}
	finishAndCompare(t, c2, want)
}

// TestTamperedHitUploadIsRejected: a hit record whose cycle does not
// decode is refused with 400 before anything reaches the log or the
// manifest.
func TestTamperedHitUploadIsRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Campaign: hitCampaign(), Dir: dir, ShardSize: 3, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	// Shard 1 covers instances [3,6); instance 3 is a hit.
	recs, err := campaign.RunShard(context.Background(), c.camp, c.plan[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Hit {
		t.Fatalf("instance 3 is not a hit: %+v", recs[0])
	}
	logPath := filepath.Join(dir, shardLogName)
	manPath := filepath.Join(dir, "manifest.jsonl")
	logSize, manSize := fileSize(t, logPath), fileSize(t, manPath)
	done := c.Status().Done
	for name, tamper := range map[string]func(r *campaign.Record){
		"agent out of range": func(r *campaign.Record) { r.Moves[0].Agent = 9 },
		"drop out of range":  func(r *campaign.Record) { r.Moves[0].Drop = []int{-1} },
		"add self-loop":      func(r *campaign.Record) { r.Moves[0].Add = []int{r.Moves[0].Agent} },
		"open trace":         func(r *campaign.Record) { r.Moves = r.Moves[:1] },
		"bad start":          func(r *campaign.Record) { r.Start = r.Start[:len(r.Start)-2] },
	} {
		bad := append([]campaign.Record(nil), recs...)
		hit := bad[0]
		hit.Moves = append([]campaign.Move(nil), hit.Moves...)
		tamper(&hit)
		bad[0] = hit
		data, err := campaign.MarshalRecords(bad)
		if err != nil {
			t.Fatal(err)
		}
		if code := postComplete(t, c, 1, data); code != http.StatusBadRequest {
			t.Fatalf("%s: tampered hit upload got status %d, want 400", name, code)
		}
	}
	if got := c.Status().Done; got != done {
		t.Fatalf("tampered uploads changed done from %d to %d", done, got)
	}
	if fileSize(t, logPath) != logSize || fileSize(t, manPath) != manSize {
		t.Fatalf("tampered uploads reached the log or the manifest")
	}
	data, err := campaign.MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if code := postComplete(t, c, 1, data); code != http.StatusOK {
		t.Fatalf("the untampered upload got status %d", code)
	}
}

// TestChaosSeedsTearShardWrites pins that the default chaos seeds put the
// shard log's torn-tail recovery under test: some seeded schedule fires a
// torn shard write.
func TestChaosSeedsTearShardWrites(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, k := range faultinject.Seeded(seed, 8, 1, 4)[faultinject.ShardWrite] {
			if k == faultinject.Torn {
				return
			}
		}
	}
	t.Fatalf("no default chaos seed fires a torn shard write")
}
