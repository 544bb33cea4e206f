package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark makes into a layer of the simulator,
// or one phase of a workload pass that groups such calls. Spans that belong
// to the same simulation job carry the same Job index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced pass pays one nil check per call boundary. Spans
// are opened and closed by the benchmark's own goroutine only.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under the innermost open span and returns
// its id; job is the job index within the pass, or -1.
func (t *tracer) begin(name string, job int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: t.pass, Job: job, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStat aggregates every span of one name: how often it ran, its total
// duration, and its self time — the duration minus the part of the
// interval its child spans cover.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// spanStats folds spans by name, ordered by total duration, largest first.
// Children of one span never overlap (they are opened and closed in
// sequence by one goroutine), so a span's self time is its duration minus
// the sum of its children's.
func spanStats(spans []span) []spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []spanStat
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, spanStat{Name: s.Name})
		}
		d := s.End - s.Start
		out[k].Count++
		out[k].Total += float64(d) / 1e9
		out[k].Self += float64(d-child[i]) / 1e9
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
