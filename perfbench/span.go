package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's origin, the index of the span that
// caused it (-1 for the root) and, for served queries, a request id.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer records spans in memory around calls into the program's layers.
// A disabled tracer records nothing and costs one branch per call, so the
// untraced run executes the same code path as the traced one.
type tracer struct {
	on     bool
	muted  bool // inside a repeat span: record nothing below it
	origin time.Time
	spans  []span
	stack  []int32
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// now returns nanoseconds since the tracer's origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span nested in the innermost open one and returns its
// index, or -1 when tracing is off.
func (t *tracer) begin(name string) int32 {
	if !t.on || t.muted {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: t.top()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close in reverse order.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records a finished child of the innermost open span from times the
// caller already took (so a hot loop reads the clock once per boundary).
func (t *tracer) leaf(name string, start, end, req int64) {
	if !t.on || t.muted {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: t.top(), req: req})
}

// repeat runs fn inside one span named name with every span below it
// suppressed. Set-up that a pass repeats only to take a median runs its
// extra repetitions this way, so their time is accounted for but the
// per-layer sums count one repetition.
func (t *tracer) repeat(name string, fn func()) {
	s := t.begin(name)
	was := t.muted
	t.muted = true
	fn()
	t.muted = was
	t.end(s)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total int64 // summed durations, ns
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap (parallel work) or spill
// past the parent; only the covered part of the parent's own interval is
// subtracted, so a self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].start < spans[ch[b]].start })
		covered, cur := int64(0), s.start
		for _, c := range ch {
			lo, hi := max(spans[c].start, cur), min(spans[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// byName aggregates spans per name.
func byName(spans []span) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.name]
		lt.count++
		lt.total += s.end - s.start
		out[s.name] = lt
	}
	return out
}

// writeSpans writes every span as one CSV line: name, start and end in ns
// since the origin, parent index, self time and request id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,self_ns,req")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, self[i], s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
