package coord

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/rng"
)

// startWorkers launches n fault-free workers against url and returns a
// collector that fails the test if any worker errored.
func startWorkers(t *testing.T, url string, n int) func() {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sw%d", i)
		go func() {
			_, err := RunWorker(context.Background(), WorkerConfig{
				URL: url, Campaign: testCampaign(), Name: name,
			})
			errs <- err
		}()
	}
	return func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("worker: %v", err)
			}
		}
	}
}

// completedCoordinator opens a coordinator, drives workers until the
// campaign merges, and returns it with its server and canonical bytes.
func completedCoordinator(t *testing.T) (*Coordinator, *httptest.Server, []byte) {
	t.Helper()
	want := singleProcessBytes(t)
	c, err := Open(Config{Campaign: testCampaign(), Dir: t.TempDir(), ShardSize: 3, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	runWorkers(t, srv.URL, 2)
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign did not complete")
	}
	return c, srv, want
}

// TestStreamPrefixProperty is the cursor-resume property test: ANY
// interleaving of cursor-resumed /v1/stream reads — random per-request
// chunk caps, a fresh request per chunk, polls racing live shard
// completions — delivers a byte stream that is at every step a
// byte-prefix of the canonical records.jsonl and equals it exactly at
// completion. Chunk responses are also asserted to respect the requested
// cap: a client's memory exposure is what it asked for.
func TestStreamPrefixProperty(t *testing.T) {
	want := singleProcessBytes(t)
	c, err := Open(Config{Campaign: testCampaign(), Dir: t.TempDir(), ShardSize: 2, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Workers complete shards while the reader interleaves its polls.
	waitWorkers := startWorkers(t, srv.URL, 2)

	s := rng.NewStream(12345)
	var got bytes.Buffer
	cursor := ""
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatalf("stream never completed (%d/%d bytes)", got.Len(), len(want))
		}
		max := int(s.Next()%512) + 1 // 1..512 bytes: exercises every boundary
		u := fmt.Sprintf("%s/v1/stream?wait=300ms&max=%d", srv.URL, max)
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		res, err := http.Get(u)
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatalf("poll %d: read: %v", i, err)
		}
		switch res.StatusCode {
		case http.StatusOK:
			if len(body) > max {
				t.Fatalf("poll %d: chunk of %d bytes exceeds the requested cap %d", i, len(body), max)
			}
			got.Write(body)
			if !bytes.HasPrefix(want, got.Bytes()) {
				t.Fatalf("poll %d: delivered bytes stopped being a canonical prefix at %d bytes", i, got.Len())
			}
			cursor = res.Header.Get(HeaderCursor)
		case http.StatusNoContent:
			cursor = res.Header.Get(HeaderCursor)
		default:
			t.Fatalf("poll %d: status %s: %s", i, res.Status, body)
		}
		if res.Header.Get(HeaderComplete) == "true" {
			break
		}
	}
	waitWorkers()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed %d bytes, want the canonical %d", got.Len(), len(want))
	}
}

// TestStreamSSE drives the SSE transport end to end: every data event is
// one record line, ids are valid resume cursors, and the stream closes
// with a complete event after exactly the canonical bytes.
func TestStreamSSE(t *testing.T) {
	c, srv, want := completedCoordinator(t)
	res, err := http.Get(srv.URL + "/v1/stream?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got bytes.Buffer
	var lastID string
	complete := false
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			if event == "complete" {
				complete = true
			} else {
				got.WriteString(strings.TrimPrefix(line, "data: "))
				got.WriteByte('\n')
			}
		case line == "":
			event = ""
		}
		if complete {
			break
		}
	}
	if !complete {
		t.Fatalf("no complete event (reassembled %d bytes)", got.Len())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("SSE delivered %d bytes, want %d", got.Len(), len(want))
	}
	if off, err := c.parseCursor(lastID, false); err != nil || off != int64(len(want)) {
		t.Fatalf("final SSE id %q: offset %d err %v, want %d", lastID, off, err, len(want))
	}
}

// TestStreamSSEResumesFromLastEventID pins the EventSource reconnect
// contract: a second SSE request carrying a mid-stream Last-Event-ID
// delivers exactly the remaining suffix.
func TestStreamSSEResumesFromLastEventID(t *testing.T) {
	c, srv, want := completedCoordinator(t)
	cut := int64(len(want) / 2)
	// Snap to a record boundary, like a real consumer's last seen id.
	cut = int64(bytes.LastIndexByte(want[:cut], '\n') + 1)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/stream?sse=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", c.cursorToken(cut, false))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var got bytes.Buffer
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "complete":
			got.WriteString(strings.TrimPrefix(line, "data: "))
			got.WriteByte('\n')
		case line == "":
			event = ""
		}
		if event == "complete" {
			break
		}
	}
	if !bytes.Equal(got.Bytes(), want[cut:]) {
		t.Fatalf("resumed SSE delivered %d bytes, want the %d-byte suffix", got.Len(), len(want)-int(cut))
	}
}

// TestStreamAdmissionControl pins the overload contract: past
// MaxStreamClients concurrent streams, a new client gets 503 with a
// Retry-After hint and the refusal is counted; freed slots re-admit.
func TestStreamAdmissionControl(t *testing.T) {
	want := singleProcessBytes(t)
	c, err := Open(Config{
		Campaign: testCampaign(), Dir: t.TempDir(), ShardSize: 3,
		MaxStreamClients: 2, RetryAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Two long-polls occupy both slots (nothing is committed yet, so they
	// wait out their windows).
	type held struct {
		res *http.Response
		err error
	}
	hold := make(chan held, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := http.Get(srv.URL + "/v1/stream?wait=2s")
			hold <- held{res, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().StreamClients != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stream slots never filled: %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := http.Get(srv.URL + "/v1/stream?wait=1ms")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third client got %s, want 503", res.Status)
	}
	if ra := res.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if st := c.Status(); st.StreamRefused != 1 {
		t.Fatalf("StreamRefused = %d, want 1", st.StreamRefused)
	}
	for i := 0; i < 2; i++ {
		h := <-hold
		if h.err != nil {
			t.Fatalf("held poll: %v", h.err)
		}
		io.Copy(io.Discard, h.res.Body)
		h.res.Body.Close()
	}
	// Slots freed: admitted again, and the stream serves correctly.
	runWorkers(t, srv.URL, 2)
	<-c.Done()
	res, err = http.Get(srv.URL + "/v1/stream?wait=1s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !bytes.HasPrefix(want, body) {
		t.Fatalf("post-release stream: %s, %d bytes", res.Status, len(body))
	}
}

// pipeListener feeds net.Pipe connections to an http.Server. net.Pipe is
// fully synchronous — a server write blocks until the client reads — so a
// stalled reader exerts true backpressure with zero OS socket buffering
// in the way, making write-deadline eviction deterministic to test.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestStreamSlowClientEviction pins the stalled-reader contract: a client
// that opens a stream and then never reads is disconnected once the write
// deadline fires, the eviction is counted, the slot is released — and the
// campaign completes and merges with the stalled client still attached (a
// stalled reader never delays shard completion or the merge).
func TestStreamSlowClientEviction(t *testing.T) {
	c, err := Open(Config{
		Campaign: testCampaign(), Dir: t.TempDir(), ShardSize: 3,
		StreamWriteTimeout: 200 * time.Millisecond,
		StreamPollMax:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	// Workers use a normal TCP server; the stalled client gets a pipe
	// server over the same handler.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ln := newPipeListener()
	pipeSrv := &http.Server{Handler: c.Handler()}
	go pipeSrv.Serve(ln)
	defer pipeSrv.Close()

	serverConn, clientConn := net.Pipe()
	defer clientConn.Close()
	select {
	case ln.conns <- serverConn:
	case <-time.After(5 * time.Second):
		t.Fatalf("pipe server never accepted")
	}
	clientConn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(clientConn, "GET /v1/stream?sse=1 HTTP/1.1\r\nHost: ncg\r\n\r\n"); err != nil {
		t.Fatalf("send request: %v", err)
	}
	// The client now reads nothing, ever: the handler's first flush blocks
	// until the write deadline evicts it.
	deadline := time.Now().Add(10 * time.Second)
	for c.Status().StreamClients != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never admitted: %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The campaign must run to completion with the stalled reader attached.
	runWorkers(t, srv.URL, 2)
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign stalled behind a slow stream client; status %+v", c.Status())
	}

	// The stalled client is evicted and its slot freed.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := c.Status()
		if st.StreamEvicted >= 1 && st.StreamClients == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never evicted: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCursorRejections pins the 4xx classification of bad resume
// cursors: malformed is 400, a different campaign's cursor is 409, an
// offset beyond the merged stream is 416 — and none of them disturb the
// coordinator (a fresh full read still matches).
func TestStreamCursorRejections(t *testing.T) {
	c, srv, want := completedCoordinator(t)
	for _, tc := range []struct {
		cursor string
		want   int
	}{
		{"garbage", http.StatusBadRequest},
		{"::", http.StatusConflict}, // empty campaign sum: minted elsewhere
		{c.fpSum + ":x", http.StatusBadRequest},
		{c.fpSum + ":-1", http.StatusBadRequest},
		{c.fpSum + ":" + fmt.Sprint(len(want)+1), http.StatusRequestedRangeNotSatisfiable},
		{"deadbeefdeadbeef:0", http.StatusConflict},
	} {
		res, err := http.Get(srv.URL + "/v1/stream?cursor=" + url.QueryEscape(tc.cursor))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Errorf("cursor %q: status %d, want %d", tc.cursor, res.StatusCode, tc.want)
		}
	}
	// No state skew: the pristine full read still matches.
	res, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !bytes.Equal(body, want) {
		t.Fatalf("post-rejection stream differs (%d vs %d bytes)", len(body), len(want))
	}
}

// TestWatchResumesAcrossRestart runs a watch client against a coordinator
// that is closed and reopened mid-stream (the planned-maintenance form of
// a crash): the cursor carries the client across the restart to a
// byte-identical stream.
func TestWatchResumesAcrossRestart(t *testing.T) {
	want := singleProcessBytes(t)
	cfg := Config{Campaign: testCampaign(), Dir: t.TempDir(), ShardSize: 3, LeaseTTL: time.Second}
	c1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var handler atomic.Value
	handler.Store(c1.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()
	runWorkers(t, srv.URL, 2)
	<-c1.Done()

	var got bytes.Buffer
	restarted := false
	stats, err := RunWatch(context.Background(), WatchConfig{
		URL: srv.URL, Name: "restart-watch", Wait: 200 * time.Millisecond, ChunkBytes: 900,
		OnChunk: func(chunk []byte, cursor string, complete bool) error {
			got.Write(chunk)
			if !restarted && got.Len() >= len(want)/3 {
				restarted = true
				c1.Close()
				c2, err := Open(cfg)
				if err != nil {
					return err
				}
				t.Cleanup(func() { c2.Close() })
				handler.Store(c2.Handler())
			}
			return nil
		},
		RetryBase: 20 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !restarted {
		t.Fatalf("restart never triggered (%d bytes in chunks of 900)", got.Len())
	}
	if !stats.Complete || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("restart watch: complete=%v, %d bytes, want %d", stats.Complete, got.Len(), len(want))
	}
}

// FuzzStreamCursor throws arbitrary cursor and wait strings at
// /v1/stream: every response must be 200/204 or a clean 4xx — never a
// 5xx, never a panic — and the coordinator's canonical stream must be
// unaffected afterwards.
func FuzzStreamCursor(f *testing.F) {
	c, err := Open(Config{
		Campaign: testCampaign(), Dir: f.TempDir(), ShardSize: 3,
		LeaseTTL: time.Second, StreamPollMax: 200 * time.Millisecond,
	})
	if err != nil {
		f.Fatalf("Open: %v", err)
	}
	f.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	f.Cleanup(srv.Close)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("fz%d", i)
		go func() {
			_, err := RunWorker(context.Background(), WorkerConfig{
				URL: srv.URL, Campaign: testCampaign(), Name: name,
			})
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			f.Fatalf("worker: %v", err)
		}
	}
	<-c.Done()
	res, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		f.Fatal(err)
	}
	want, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if len(want) == 0 {
		f.Fatalf("empty canonical stream")
	}

	f.Add("", "1ms")
	f.Add("garbage", "1ms")
	f.Add("aaaa:bbbb", "0s")
	f.Add("0123456789abcdef:-99", "1ms")
	f.Add("0123456789abcdef:999999999999", "xx")
	f.Add(":::::", "-5s")
	f.Add("\x00\xff:\x00", "1ns")
	f.Add(c.fpSum+":0", "10h")
	f.Add(c.fpSum+":999999999999", "1ms")
	f.Fuzz(func(t *testing.T, cursor, wait string) {
		q := url.Values{}
		q.Set("cursor", cursor)
		q.Set("wait", wait)
		res, err := http.Get(srv.URL + "/v1/stream?" + q.Encode())
		if err != nil {
			t.Fatalf("request failed: %v", err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		ok := res.StatusCode == http.StatusOK || res.StatusCode == http.StatusNoContent ||
			(res.StatusCode >= 400 && res.StatusCode < 500)
		if !ok {
			t.Fatalf("cursor %q wait %q: status %d", cursor, wait, res.StatusCode)
		}
		// No state skew: the pristine full read still matches.
		res, err = http.Get(srv.URL + "/v1/stream?" + url.Values{"wait": {"1s"}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if !bytes.Equal(body, want) {
			t.Fatalf("cursor %q skewed the stream: %d vs %d bytes", cursor, len(body), len(want))
		}
	})
}

// hitCampaign is a deterministic mix of hit and miss records: the check
// accepts exactly the n == 6 paths, so hits land at instances 3, 8, 13, 18
// of a 20-instance enumerated sweep. The designated trace (agent 0 swaps
// its edge to 1 over to 2 and back) replays legally on every accepted
// path and closes up to ownership, so the coordinator's hit decoding gate
// admits the uploads.
func hitCampaign() campaign.Campaign {
	return campaign.Campaign{
		Name: "coord-hits",
		Samplers: []campaign.Sampler{{
			Name: "paths", Total: 20,
			Sample: func(n, i int, _ *gen.Rand) *graph.Graph { return graph.Path(3 + i%5) },
		}},
		Variants:  []campaign.Variant{{Name: "check", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }}},
		Instances: 20,
		Seed:      1,
		NewCheck: func() func(g *graph.Graph) bool {
			return func(g *graph.Graph) bool { return g.N() == 6 }
		},
		Moves: []game.Move{
			{Agent: 0, Drop: []int{1}, Add: []int{2}},
			{Agent: 0, Drop: []int{2}, Add: []int{1}},
		},
	}
}

// completedHitCoordinator merges hitCampaign and returns the coordinator
// with its canonical full and hit-only byte streams.
func completedHitCoordinator(t *testing.T) (*Coordinator, *httptest.Server, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := campaign.Run(hitCampaign(), campaign.Options{}, campaign.NewJSONLSink(&buf)); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	want := buf.Bytes()
	c, err := Open(Config{Campaign: hitCampaign(), Dir: t.TempDir(), ShardSize: 3, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("hw%d", i)
		go func() {
			_, err := RunWorker(context.Background(), WorkerConfig{URL: srv.URL, Campaign: hitCampaign(), Name: name})
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign did not complete")
	}
	return c, srv, want, filterHits(want)
}

// TestStreamHitsFilter drives GET /v1/stream?hits=1 with tiny random
// chunk caps: the concatenated bodies must equal exactly the hit lines of
// the canonical stream, every body line must be a hit record, and the
// cursors must live in the filtered namespace while still advancing
// through hit-free stretches (a 204 with a moved cursor).
func TestStreamHitsFilter(t *testing.T) {
	_, srv, _, wantHits := completedHitCoordinator(t)
	s := rng.NewStream(999)
	var got bytes.Buffer
	cursor := ""
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatalf("filtered stream never completed (%d/%d bytes)", got.Len(), len(wantHits))
		}
		max := int(s.Next()%256) + 1
		u := fmt.Sprintf("%s/v1/stream?hits=1&wait=300ms&max=%d", srv.URL, max)
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		res, err := http.Get(u)
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatalf("poll %d: read: %v", i, err)
		}
		switch res.StatusCode {
		case http.StatusOK:
			for _, line := range bytes.SplitAfter(body, []byte("\n")) {
				if len(line) > 0 && !hitLine(line) {
					t.Fatalf("poll %d: non-hit line in filtered body: %s", i, line)
				}
			}
			got.Write(body)
		case http.StatusNoContent:
		default:
			t.Fatalf("poll %d: status %s: %s", i, res.Status, body)
		}
		cursor = res.Header.Get(HeaderCursor)
		if !strings.Contains(cursor, ":"+filteredNS+":") {
			t.Fatalf("poll %d: cursor %q is not in the filtered namespace", i, cursor)
		}
		if !bytes.HasPrefix(wantHits, got.Bytes()) {
			t.Fatalf("poll %d: filtered bytes stopped being a prefix of the hit lines at %d bytes", i, got.Len())
		}
		if res.Header.Get(HeaderComplete) == "true" {
			break
		}
	}
	if !bytes.Equal(got.Bytes(), wantHits) {
		t.Fatalf("filtered stream delivered %d bytes, want the %d hit-line bytes", got.Len(), len(wantHits))
	}
}

// TestStreamHitsCursorNamespace pins the namespace separation: a plain
// cursor on ?hits=1 and a filtered cursor on the plain stream are both
// rejected with 400, and the plain stream itself is untouched by the
// filtered endpoint's existence.
func TestStreamHitsCursorNamespace(t *testing.T) {
	c, srv, want, _ := completedHitCoordinator(t)
	get := func(u string) *http.Response {
		t.Helper()
		res, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		io.Copy(io.Discard, res.Body)
		return res
	}
	plain := c.cursorToken(0, false)
	filtered := c.cursorToken(0, true)
	if res := get(srv.URL + "/v1/stream?hits=1&cursor=" + url.QueryEscape(plain)); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain cursor on ?hits=1: status %s, want 400", res.Status)
	}
	if res := get(srv.URL + "/v1/stream?cursor=" + url.QueryEscape(filtered)); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("filtered cursor on plain stream: status %s, want 400", res.Status)
	}
	// The plain stream still serves the full canonical bytes.
	res, err := http.Get(srv.URL + fmt.Sprintf("/v1/stream?max=%d", len(want)+1))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !bytes.Equal(body, want) {
		t.Fatalf("plain stream served %d bytes, want the canonical %d", len(body), len(want))
	}
}

// TestStreamHitsSSE: the SSE transport under ?hits=1 emits exactly the
// hit records as events (ids in the filtered namespace) and closes with a
// complete event.
func TestStreamHitsSSE(t *testing.T) {
	_, srv, _, wantHits := completedHitCoordinator(t)
	res, err := http.Get(srv.URL + "/v1/stream?sse=1&hits=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var got bytes.Buffer
	lastID := ""
	complete := false
	sc := bufio.NewScanner(res.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
			if !strings.Contains(lastID, ":"+filteredNS+":") {
				t.Fatalf("SSE id %q is not in the filtered namespace", lastID)
			}
		case strings.HasPrefix(line, "data: "):
			if event == "complete" {
				complete = true
			} else {
				got.WriteString(strings.TrimPrefix(line, "data: "))
				got.WriteByte('\n')
			}
		case line == "":
			event = ""
		}
		if complete {
			break
		}
	}
	if !complete {
		t.Fatalf("SSE stream ended without a complete event (read %d bytes)", got.Len())
	}
	if !bytes.Equal(got.Bytes(), wantHits) {
		t.Fatalf("SSE hits stream delivered %d bytes, want %d", got.Len(), len(wantHits))
	}
}
