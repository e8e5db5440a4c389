package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span kinds recorded around the benchmark's calls into the program.
const (
	spanPublish   uint8 = iota + 1 // Bus.Publish / PublishGuaranteed
	spanBroadcast                  // Endpoint.Broadcast, via the meter
	spanSend                       // Endpoint.Send, via the meter
	spanTransit                    // publish return -> receive on Subscription.C
)

var spanNames = [...]string{"", "core.publish", "transport.broadcast", "transport.send", "core.transit"}

// spanParent is the kind of span that causes each kind (same id).
var spanParent = [...]uint8{0, 0, spanPublish, spanPublish, spanPublish}

// span is one timed interval. id names the publication, (feed<<40 | seq);
// 0 when the call cannot be tied to one (protocol traffic, several
// publishers sharing a host).
type span struct {
	kind       uint8
	id         uint64
	start, end int64 // ns since the benchmark's clock origin
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return clock()
}

// span records an interval that started at start and ends now.
func (t *tracer) span(kind uint8, id uint64, start int64) {
	if t == nil {
		return
	}
	t.add(span{kind: kind, id: id, start: start, end: clock()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span of one kind, sorted.
// Transit spans are completed from their publish span's end.
func (t *tracer) durations(kind uint8) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, s.end-s.start)
		}
	}
	slices.Sort(out)
	return out
}

// fillTransits sets each transit span's start to its publication's
// publish end; receivers record only the receive instant.
func (t *tracer) fillTransits() {
	t.mu.Lock()
	defer t.mu.Unlock()
	pubEnd := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.kind == spanPublish {
			pubEnd[s.id] = s.end
		}
	}
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.kind == spanTransit {
			end, ok := pubEnd[s.id]
			if !ok {
				continue // published before tracing started
			}
			s.start = end
		}
		kept = append(kept, s)
	}
	t.spans = kept
}

// write stores the spans as text lines "name id parent start end" in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		parent := "-"
		if p := spanParent[s.kind]; p != 0 {
			parent = spanNames[p]
		}
		fmt.Fprintf(w, "%s %d %s %d %d\n", spanNames[s.kind], s.id, parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

var origin = time.Now()

// clock is the benchmark's monotonic clock, in ns since process start.
func clock() int64 { return int64(time.Since(origin)) }
