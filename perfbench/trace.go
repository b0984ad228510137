package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer, plus per-operation counters. A nil *tracer records nothing, so
// untraced operations pay one nil check per call site.
type tracer struct {
	t0     time.Time
	spans  []span
	opID   int // current operation, 0 during set-up
	counts []map[string]float64
}

type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: []map[string]float64{{}}} }

// beginOp starts a new operation and returns its root span.
func (t *tracer) beginOp() int {
	if t == nil {
		return 0
	}
	t.opID++
	t.counts = append(t.counts, map[string]float64{})
	return t.begin("op", 0)
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, op: t.opID, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// count adds v to the current operation's counter name.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[t.opID][name] += v
}

// selfSeconds returns, per operation (op IDs from firstOp on), the summed
// self time of spans called name: each span's duration minus the part its
// child spans cover. Children are sequential, so their durations add.
func (t *tracer) selfSeconds(name string, firstOp int) []float64 {
	return t.spanSeconds(name, firstOp, true)
}

// totalSeconds is selfSeconds with the children's time left in.
func (t *tracer) totalSeconds(name string, firstOp int) []float64 {
	return t.spanSeconds(name, firstOp, false)
}

func (t *tracer) spanSeconds(name string, firstOp int, self bool) []float64 {
	child := make([]time.Duration, len(t.spans)+1)
	if self {
		for _, s := range t.spans {
			if s.parent != 0 {
				child[s.parent] += s.end - s.start
			}
		}
	}
	per := map[int]float64{}
	for _, s := range t.spans {
		if s.name == name && s.op >= firstOp {
			per[s.op] += (s.end - s.start - child[s.id]).Seconds()
		}
	}
	out := make([]float64, 0, len(per))
	for op := firstOp; op <= t.opID; op++ {
		if v, ok := per[op]; ok {
			out = append(out, v)
		}
	}
	return out
}

// counter returns counter name per operation from firstOp on.
func (t *tracer) counter(name string, firstOp int) []float64 {
	var out []float64
	for op := firstOp; op <= t.opID; op++ {
		if v, ok := t.counts[op][name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto. Each span's args carry its operation, ID and parent.
func (t *tracer) writeChrome(path string, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
		OtherData   any     `json:"otherData"`
	}{OtherData: meta}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.op, "span": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
