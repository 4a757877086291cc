package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call, recorded from the benchmark's own code:
// around a call into the engine, or rebuilt from the timestamps of the
// engine's hooks. Times are nanoseconds since the log's base.
type span struct {
	name   string
	lane   string // lane group; tracks are assigned when the file is written
	start  int64
	end    int64
	id     int
	parent int // 0: a root span
	op     int // the operation (iteration or request) the span belongs to
	args   map[string]any
}

// spanLog keeps spans in memory and writes them as Chrome trace-event
// JSON (Perfetto and chrome://tracing open it) when the benchmark ends.
// Recording is switched on only for the first traced operations, so the
// file stays small however long the run; the per-layer metrics come from
// counters, not from the stored spans.
type spanLog struct {
	base time.Time

	mu     sync.Mutex
	on     bool
	op     int
	nextID int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// now returns the log clock: monotonic nanoseconds since base.
func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// record switches recording on (for operation op) or off.
func (l *spanLog) record(on bool, op int) {
	l.mu.Lock()
	l.on, l.op = on, op
	l.mu.Unlock()
}

// add stores one span when recording is on and returns its id (0 when
// nothing was stored).
func (l *spanLog) add(name, lane string, start, end int64, parent int, args map[string]any) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return 0
	}
	l.nextID++
	l.spans = append(l.spans, span{name: name, lane: lane, start: start, end: end,
		id: l.nextID, parent: parent, op: l.op, args: args})
	return l.nextID
}

// chromeEvent is one record of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans to path. Spans of one lane group that
// overlap (parallel workers, concurrent connections) go to separate
// tracks, assigned greedily by start time.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end // parents before their children
	})
	var events []chromeEvent
	type track struct {
		lane string
		ends []int64 // open spans on the track, outermost first
	}
	var tracks []*track
	pick := func(s span) int {
		for i, t := range tracks {
			if t.lane != s.lane {
				continue
			}
			for len(t.ends) > 0 && t.ends[len(t.ends)-1] <= s.start {
				t.ends = t.ends[:len(t.ends)-1]
			}
			// A span may share a track only if it nests in the open one.
			if len(t.ends) == 0 || s.end <= t.ends[len(t.ends)-1] {
				t.ends = append(t.ends, s.end)
				return i
			}
		}
		tracks = append(tracks, &track{lane: s.lane, ends: []int64{s.end}})
		return len(tracks) - 1
	}
	for _, s := range spans {
		tid := pick(s) + 1
		args := map[string]any{"id": s.id, "op": s.op}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: s.name, Cat: s.lane, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: tid, Args: args})
	}
	for i, t := range tracks {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": t.lane}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
