package coord

// The live result stream: GET /v1/stream serves the committed
// merged-record prefix — the concatenation of completed shards' records
// in plan order up to the first incomplete shard, always a byte-prefix of
// the canonical records.jsonl — to many concurrent clients, with overload
// safety as the design center:
//
//   - No in-memory fan-out. Every chunk is read straight from the durable
//     shard log at serve time; the coordinator holds O(StreamChunkBytes)
//     per in-flight response and nothing per idle or lagging client.
//   - Monotonic resume cursors. A cursor is "<campaign-sum>:<offset>"; a
//     client advances it only after fully reading a chunk, so a
//     reconnecting client resumes exactly after its last acked bytes and
//     the stream it observes is always a byte-prefix of records.jsonl.
//   - Slow-client eviction. Every chunk write carries a deadline
//     (StreamWriteTimeout); a reader that cannot absorb it is
//     disconnected. A stalled client therefore never delays shard
//     completion, the merge, or any other client.
//   - Admission control. Past MaxStreamClients concurrent streams the
//     endpoint refuses with 503 + Retry-After instead of degrading
//     everyone.
//
// Two transports share the logic: long-poll (the default; one bounded
// chunk per request, 204 + cursor echo on an empty wait) and SSE
// (?sse=1; one event per record line, id: carrying the resume cursor so
// EventSource reconnects resume for free).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ncg/internal/faultinject"
)

// Stream response headers.
const (
	// HeaderCursor carries the resume cursor for the bytes after this
	// response's body. Clients must adopt it only after reading the full
	// body (Content-Length is always set on long-poll responses, so a
	// severed chunk is detectable and must be discarded).
	HeaderCursor = "X-Ncg-Cursor"
	// HeaderComplete is "true" once the cursor is at the end of a merged
	// campaign: no further bytes will ever exist.
	HeaderComplete = "X-Ncg-Complete"
)

// cursorErr is a stream-cursor rejection with its HTTP status: malformed
// cursors are 400, cursors minted for a different campaign are 409, and
// offsets beyond any byte the campaign can commit are 416. All are
// permanent — retrying cannot fix a bad cursor.
type cursorErr struct {
	code int
	msg  string
}

func (e cursorErr) Error() string { return e.msg }

// filteredNS is the cursor-namespace tag of the hit-filtered stream. A
// filtered cursor is "<campaign-sum>:hits:<offset>": the offset still
// indexes the underlying committed byte stream (it is the scan position,
// advanced past misses and hits alike), but the tag keeps the two cursor
// families apart — a plain cursor handed to ?hits=1 (or vice versa) is a
// client bug and is rejected instead of silently changing semantics.
const filteredNS = "hits"

// parseCursor validates a resume cursor against this campaign and the
// request's filter mode. The empty cursor is the stream's start in either
// namespace.
func (c *Coordinator) parseCursor(s string, hits bool) (int64, error) {
	if s == "" {
		return 0, nil
	}
	sum, off, ok := strings.Cut(s, ":")
	if !ok {
		return 0, cursorErr{http.StatusBadRequest, fmt.Sprintf("malformed cursor %q: want <campaign>:<offset>", s)}
	}
	if sum != c.fpSum {
		return 0, cursorErr{http.StatusConflict, fmt.Sprintf("stale cursor: minted for campaign %s, this coordinator serves %s", sum, c.fpSum)}
	}
	filtered := false
	if rest, ok := strings.CutPrefix(off, filteredNS+":"); ok {
		filtered = true
		off = rest
	}
	if filtered != hits {
		if filtered {
			return 0, cursorErr{http.StatusBadRequest, fmt.Sprintf("cursor %q is from the hit-filtered stream; resume it with ?hits=1", s)}
		}
		return 0, cursorErr{http.StatusBadRequest, fmt.Sprintf("cursor %q is from the plain stream; a ?hits=1 stream needs a %s-namespace cursor", s, filteredNS)}
	}
	n, err := strconv.ParseInt(off, 10, 64)
	if err != nil || n < 0 {
		return 0, cursorErr{http.StatusBadRequest, fmt.Sprintf("malformed cursor offset %q", off)}
	}
	return n, nil
}

// cursorToken formats the resume cursor for a byte offset in the plain or
// hit-filtered namespace.
func (c *Coordinator) cursorToken(off int64, hits bool) string {
	if hits {
		return fmt.Sprintf("%s:%s:%d", c.fpSum, filteredNS, off)
	}
	return fmt.Sprintf("%s:%d", c.fpSum, off)
}

// logSpan is one contiguous read from the shard log.
type logSpan struct {
	off int64
	n   int64
}

// chunkSpansLocked maps the byte range [off, off+limit) of the committed
// prefix onto shard-log reads, clamped to the committed length; shards
// that sit back to back in the log share one span. Callers hold mu; the
// IO itself happens after mu is released — the merge and lease paths
// never wait on a stream read, and the spans stay valid because
// committed log bytes are never rewritten.
func (c *Coordinator) chunkSpansLocked(off, limit int64) []logSpan {
	var spans []logSpan
	want := limit
	var at int64
	for i := range c.states {
		if c.states[i].status != shardDone || want <= 0 {
			break
		}
		size := c.states[i].bytes
		if off < at+size {
			skip := int64(0)
			if off > at {
				skip = off - at
			}
			n := size - skip
			if n > want {
				n = want
			}
			start := c.states[i].off + skip
			if k := len(spans) - 1; k >= 0 && spans[k].off+spans[k].n == start {
				spans[k].n += n
			} else {
				spans = append(spans, logSpan{off: start, n: n})
			}
			want -= n
			off += n
		}
		at += size
	}
	return spans
}

// readChunk reads the spans into one bounded buffer and truncates at the
// last record boundary (newline) so resume cursors land between records;
// a single over-long record line is served unsplit (progress beats
// alignment). Returns nil on any read failure (the handle closes when
// the coordinator crashes or shuts down under a reader) — the caller
// treats it as "nothing readable right now" and the client re-polls.
func (c *Coordinator) readChunk(spans []logSpan) []byte {
	var total int64
	for _, sp := range spans {
		total += sp.n
	}
	buf := make([]byte, total)
	var at int64
	for _, sp := range spans {
		if _, err := c.log.ReadAt(buf[at:at+sp.n], sp.off); err != nil {
			return nil
		}
		at += sp.n
	}
	if i := bytes.LastIndexByte(buf, '\n'); i >= 0 && i+1 < len(buf) {
		buf = buf[:i+1]
	}
	return buf
}

// admitStream reserves one stream-client slot, or refuses with 503 +
// Retry-After when the client cap is reached. The caller must release
// the slot via releaseStream.
func (c *Coordinator) admitStream(w http.ResponseWriter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.streams >= c.cfg.MaxStreamClients {
		c.streamRefused++
		w.Header().Set("Retry-After", retryAfterSeconds(c.cfg.RetryAfter))
		http.Error(w, fmt.Sprintf("stream admission: %d clients connected (cap %d)", c.streams, c.cfg.MaxStreamClients),
			http.StatusServiceUnavailable)
		return false
	}
	c.streams++
	return true
}

func (c *Coordinator) releaseStream() {
	c.mu.Lock()
	c.streams--
	c.mu.Unlock()
}

// retryAfterSeconds renders a duration as a Retry-After header value
// (whole seconds, at least 1).
func retryAfterSeconds(d time.Duration) string {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// handleStream serves GET /v1/stream:
//
//	?cursor=<tok>  resume after the last acked byte ("" = start; SSE
//	               clients may send Last-Event-ID instead)
//	?wait=<dur>    long-poll: hold an empty poll open up to this long
//	               (capped by StreamPollMax) waiting for new commits
//	?max=<bytes>   chunk cap for this response (capped by
//	               StreamChunkBytes)
//	?sse=1         server-sent events: one event per record line, id:
//	               carrying the resume cursor, "complete" event at the
//	               merged end
//	?hits=1        server-side hit filter: only records with "hit":true
//	               are served; cursors live in their own "hits"
//	               namespace (the scan position over the underlying
//	               stream), so a dashboard follows hits without draining
//	               the full record stream. Plain cursors are unchanged
//	               and the two namespaces never mix.
//
// A long-poll response is one bounded chunk (200, Content-Length set,
// X-Ncg-Cursor = the cursor after it) or empty (204 with the cursor
// echoed). X-Ncg-Complete: true marks the end of a merged campaign. A
// filtered 204 still advances the cursor past scanned misses, so polls
// make progress even through hit-free stretches.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	cur := r.URL.Query().Get("cursor")
	if cur == "" {
		cur = r.Header.Get("Last-Event-ID")
	}
	hits := false
	if s := r.URL.Query().Get("hits"); s != "" && s != "0" {
		hits = true
	}
	off, err := c.parseCursor(cur, hits)
	if err != nil {
		ce := err.(cursorErr)
		http.Error(w, ce.msg, ce.code)
		return
	}
	// An offset beyond every byte the plan can produce is rejected before
	// admission: when the campaign is merged the total is exact; before
	// that the committed prefix is the only provable bound, and a cursor
	// past a *merged* total can never become valid.
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		http.Error(w, "coordinator crashed", http.StatusServiceUnavailable)
		return
	}
	prefix := c.prefixLocked()
	merged := c.merged
	c.mu.Unlock()
	if merged && off > prefix {
		http.Error(w, fmt.Sprintf("cursor offset %d beyond the merged stream (%d bytes)", off, prefix),
			http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if !c.admitStream(w) {
		return
	}
	defer c.releaseStream()
	maxChunk := c.cfg.StreamChunkBytes
	if s := r.URL.Query().Get("max"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 && n < maxChunk {
			maxChunk = n
		}
	}
	if r.URL.Query().Get("sse") != "" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		c.streamSSE(w, r, off, maxChunk, hits)
		return
	}
	c.streamPoll(w, r, off, maxChunk, hits)
}

// hitLine reports whether one record line satisfies the ?hits=1 filter.
// Lines are whole records (readChunk truncates at record boundaries), so
// a plain unmarshal of the one field is exact — no substring guessing.
func hitLine(line []byte) bool {
	var rec struct {
		Hit bool `json:"hit"`
	}
	return json.Unmarshal(line, &rec) == nil && rec.Hit
}

// filterHits keeps only the hit lines of a record-aligned chunk.
func filterHits(chunk []byte) []byte {
	var out []byte
	for len(chunk) > 0 {
		line := chunk
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			line = chunk[:i+1]
		}
		chunk = chunk[len(line):]
		if hitLine(line) {
			out = append(out, line...)
		}
	}
	return out
}

// nextChunk blocks until the committed prefix extends past off, the
// campaign is complete at off, the deadline passes, or the request dies.
// It returns the chunk (nil when empty), whether off is the merged end,
// and whether the coordinator crashed while waiting.
func (c *Coordinator) nextChunk(r *http.Request, off int64, max int, deadline time.Time) (chunk []byte, complete, crashed bool) {
	for {
		c.mu.Lock()
		if c.crashed {
			c.mu.Unlock()
			return nil, false, true
		}
		prefix := c.prefixLocked()
		merged := c.merged
		var spans []logSpan
		if off < prefix {
			spans = c.chunkSpansLocked(off, int64(max))
		}
		wait := c.commitCh
		c.mu.Unlock()
		if spans != nil {
			if chunk := c.readChunk(spans); len(chunk) > 0 {
				return chunk, merged && off+int64(len(chunk)) == prefix, false
			}
			// The log read failed (the handle closed under a crash or
			// shutdown); surface as an empty poll, not corrupt bytes.
		}
		if merged && off == prefix {
			return nil, true, false
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil, false, false
		}
		t := time.NewTimer(deadline.Sub(now))
		select {
		case <-wait:
		case <-r.Context().Done():
		case <-t.C:
		}
		t.Stop()
		if r.Context().Err() != nil {
			return nil, false, false
		}
	}
}

// streamPoll is the long-poll transport: one bounded chunk per request.
// In filtered mode (?hits=1) the scan keeps consuming hit-free windows
// until something matches, the campaign completes at the scan position,
// or the wait window closes; an empty response still carries the advanced
// cursor, so misses are scanned at most once across polls.
func (c *Coordinator) streamPoll(w http.ResponseWriter, r *http.Request, off int64, maxChunk int, hits bool) {
	wait := time.Duration(0)
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("bad wait %q", s), http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > c.cfg.StreamPollMax {
		wait = c.cfg.StreamPollMax
	}
	deadline := time.Now().Add(wait)
	for {
		chunk, complete, crashed := c.nextChunk(r, off, maxChunk, deadline)
		if crashed {
			http.Error(w, "coordinator crashed", http.StatusServiceUnavailable)
			return
		}
		body := chunk
		if hits && chunk != nil {
			// The window may end mid-record and hit filtering needs whole
			// lines to parse. Trim to the last newline — the cursor is a raw
			// scan offset, so the trimmed tail is re-read next window — and
			// when not even one record fits, widen the window and retry.
			if cut := bytes.LastIndexByte(chunk, '\n') + 1; cut == 0 && !complete {
				maxChunk *= 2
				continue
			} else if cut < len(chunk) {
				chunk = chunk[:cut]
				complete = false
			}
			body = filterHits(chunk)
			off += int64(len(chunk))
			if len(body) == 0 && !complete && time.Now().Before(deadline) && r.Context().Err() == nil {
				// A hit-free window: keep scanning inside the wait budget.
				continue
			}
		}
		if len(body) == 0 {
			w.Header().Set(HeaderCursor, c.cursorToken(off, hits))
			w.Header().Set(HeaderComplete, strconv.FormatBool(complete))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		next := off
		if !hits {
			next = off + int64(len(chunk))
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Header().Set(HeaderCursor, c.cursorToken(next, hits))
		w.Header().Set(HeaderComplete, strconv.FormatBool(complete))
		c.writeChunk(w, body)
		return
	}
}

// writeChunk writes one chunk under the slow-client deadline, firing the
// stream-side fault points: an injected Drop severs the connection after
// half the chunk (the client must detect the truncation and discard), an
// injected Crash kills the coordinator mid-stream. Failures abort the
// request via http.ErrAbortHandler — the connection dies, the deferred
// slot release runs, and nothing else ever waited on this client.
func (c *Coordinator) writeChunk(w http.ResponseWriter, chunk []byte) {
	switch c.cfg.Injector.Fire(faultinject.StreamChunk) {
	case faultinject.Crash:
		c.mu.Lock()
		c.crash("stream-chunk")
		c.mu.Unlock()
		panic(http.ErrAbortHandler)
	case faultinject.Drop:
		c.cfg.Logf("coord: injected stream disconnect mid-chunk")
		rc := http.NewResponseController(w)
		rc.SetWriteDeadline(time.Now().Add(c.cfg.StreamWriteTimeout))
		w.Write(chunk[:len(chunk)/2])
		rc.Flush()
		panic(http.ErrAbortHandler)
	}
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Now().Add(c.cfg.StreamWriteTimeout))
	if _, err := w.Write(chunk); err != nil {
		// The write deadline fired or the client vanished: evict.
		c.mu.Lock()
		c.streamEvicted++
		c.mu.Unlock()
		c.cfg.Logf("coord: stream client evicted (%v)", err)
		panic(http.ErrAbortHandler)
	}
	if err := rc.Flush(); err != nil {
		c.mu.Lock()
		c.streamEvicted++
		c.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
}

// streamSSE is the server-sent-events transport: a held-open response of
// one event per record line, each carrying its resume cursor as the SSE
// id (so EventSource's automatic Last-Event-ID reconnect resumes
// exactly), closed with a "complete" event at the merged end. Chunks are
// still bounded and log-backed; a slow consumer hits the per-write
// deadline and is evicted.
// In filtered mode (?hits=1) only hit records become events; the id of an
// event is the scan position after its line, so a Last-Event-ID reconnect
// resumes exactly past every record — hit or miss — the client has seen.
func (c *Coordinator) streamSSE(w http.ResponseWriter, r *http.Request, off int64, maxChunk int, hits bool) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	for {
		chunk, complete, crashed := c.nextChunk(r, off, maxChunk, time.Now().Add(c.cfg.StreamPollMax))
		if crashed {
			return
		}
		if r.Context().Err() != nil {
			return
		}
		if chunk != nil {
			var sse []byte
			at := off
			for len(chunk) > 0 {
				line := chunk
				if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
					line = chunk[:i+1]
				}
				chunk = chunk[len(line):]
				at += int64(len(line))
				if hits && !hitLine(line) {
					continue
				}
				sse = append(sse, "id: "+c.cursorToken(at, hits)+"\ndata: "...)
				sse = append(sse, bytes.TrimRight(line, "\n")...)
				sse = append(sse, "\n\n"...)
			}
			off = at
			if len(sse) > 0 {
				// An all-miss filtered window writes nothing; the next
				// event's id (or the complete event) carries the advanced
				// scan position.
				c.writeChunk(w, sse)
			}
		}
		if complete {
			fin := fmt.Sprintf("event: complete\nid: %s\ndata: %d\n\n", c.cursorToken(off, hits), off)
			c.writeChunk(w, []byte(fin))
			return
		}
		// An empty wait window: emit an SSE comment as a keep-alive so
		// intermediaries do not reap the idle connection.
		c.writeChunk(w, []byte(": keep-alive\n\n"))
	}
}
