package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. Parent is
// the ID of the span that caused it (0: a root); Trace groups the spans
// of one study phase or one campaign.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: the name up to its first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: begin returns 0 and end does nothing, so the same
// walk code serves both runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, trace, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(parent int, trace, name string, fn func(id int) error) error {
	id := t.begin(parent, trace, name)
	err := fn(id)
	t.end(id)
	return err
}

// mark returns the ID of the latest span, so a walk can later select
// the spans it opened itself.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the closed spans opened after mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans)-mark)
	for _, s := range t.spans[mark:] {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children. Children may overlap each other
// (parallel calls under one parent), so their intervals are merged
// before they are subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		lo, hi := int64(-1), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanStats indexes a finished trace by span name.
type spanStats struct {
	spans []span
	self  map[int]time.Duration
}

func newSpanStats(spans []span) *spanStats {
	return &spanStats{spans: spans, self: selfTimes(spans)}
}

// selfSum totals the self time of every span with the given name.
func (st *spanStats) selfSum(name string) time.Duration {
	var d time.Duration
	for _, s := range st.spans {
		if s.Name == name {
			d += st.self[s.ID]
		}
	}
	return d
}

// durations lists the inclusive durations of the named spans, in
// seconds.
func (st *spanStats) durations(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// count returns how many spans carry the name.
func (st *spanStats) count(name string) int {
	n := 0
	for _, s := range st.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// layerSelf totals self time per layer, sorted by layer name.
func (st *spanStats) layerSelf() []layerTime {
	m := map[string]time.Duration{}
	for _, s := range st.spans {
		m[s.layer()] += st.self[s.ID]
	}
	out := make([]layerTime, 0, len(m))
	for l, d := range m {
		out = append(out, layerTime{l, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

type layerTime struct {
	layer string
	self  time.Duration
}

func printLayerTable(w io.Writer, title string, rows []layerTime) {
	fmt.Fprintf(w, "self time by layer (%s):\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %10.3f s\n", r.layer, r.self.Seconds())
	}
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie strictly above its rank. When too few do,
// it returns the highest percentile that keeps minBeyond samples beyond
// it instead (the median at least), so a small sample never reports a
// tail it cannot support.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank; the epsilon keeps 0.9*100 from rounding up to 91.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	rank = max(0, min(rank, n-1))
	ok := n-1-rank >= minBeyond
	if !ok {
		med := int(math.Ceil(0.5*float64(n))) - 1
		rank = max(med, min(rank, n-1-minBeyond))
	}
	return s[rank], ok
}
