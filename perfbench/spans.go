package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point (or rebuilt from a lifecycle event the program
// exposes). Spans of one operation share Op; the operation's root span has
// Parent 0 and layer "op".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code at the cost of a nil
// check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a lifecycle
// event's timestamp) and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// all returns a copy of the closed spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
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

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs, clipped to clip: time
// covered by several overlapping intervals counts once.
func unionLen(ivs []interval, clip interval) int64 {
	var in []interval
	for _, iv := range ivs {
		s, e := max(iv.start, clip.start), min(iv.end, clip.end)
		if e > s {
			in = append(in, interval{s, e})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	var total, curS, curE int64
	for i, iv := range in {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// ledger is the per-layer decomposition of the traced operations' wall
// time.
type ledger struct {
	Ops      int
	Wall     int64            // summed wall time the operations are charged
	Self     map[string]int64 // per-layer self time, summed over spans
	Busy     map[string]int64 // per-layer summed span duration
	Residual int64            // operation wall time no layer span covered
}

// buildLedger computes self times and the residual. A span's self time is
// its duration minus the union of its children's intervals within it, so
// parallel children covering the same instant subtract it once. A layer's
// self time sums its spans' self times and can exceed wall time when the
// layer runs on several cores at once. The residual of an operation is
// the part of its wall time that no non-root span covers: waiting that no
// layer reports. An operation's wall time is its root span's, or, when
// charged holds the operation's ID, that figure: the wall time of the
// operation itself when the spans come from a replay of its calls. Run to
// run noise makes some replays slower than their operation and some
// faster, so residuals are summed with their sign, then floored at 0.
func buildLedger(spans []span, charged map[int]int64) ledger {
	lg := ledger{Self: map[string]int64{}, Busy: map[string]int64{}}
	children := map[int][]interval{}
	byOp := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		lg.Self[s.layer()] += s.dur() - unionLen(children[s.ID], interval{s.Start, s.End})
		lg.Busy[s.layer()] += s.dur()
	}
	for _, ops := range byOp {
		var root *span
		var rest []interval
		for i := range ops {
			if ops[i].Parent == 0 {
				root = &ops[i]
			} else {
				rest = append(rest, interval{ops[i].Start, ops[i].End})
			}
		}
		if root == nil {
			continue
		}
		wall := root.dur()
		if w, ok := charged[root.Op]; ok {
			wall = w
		}
		lg.Ops++
		lg.Wall += wall
		lg.Residual += wall - unionLen(rest, interval{root.Start, root.End})
	}
	lg.Residual = max(0, lg.Residual)
	return lg
}

// share is part/whole, 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

// format renders the ledger as a small table. replayed says the wall time
// is the untraced operations' and the self times are the replay's.
func (lg ledger) format(workload string, overhead float64, replayed bool) string {
	var b strings.Builder
	wall := "traced operations"
	if replayed {
		wall = "untraced operations; self times from the traced replay"
	}
	fmt.Fprintf(&b, "ledger %s: %d ops, wall %.3f s (%s)\n", workload, lg.Ops, float64(lg.Wall)/1e9, wall)
	layers := make([]string, 0, len(lg.Self))
	for l := range lg.Self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-11s self %9.3f s  (%5.1f%% of wall)\n", l, float64(lg.Self[l])/1e9,
			100*share(float64(lg.Self[l]), float64(lg.Wall)))
	}
	fmt.Fprintf(&b, "  %-11s      %9.3f s  (%5.1f%% of wall)\n", "residual", float64(lg.Residual)/1e9,
		100*share(float64(lg.Residual), float64(lg.Wall)))
	fmt.Fprintf(&b, "  tracing overhead: traced/untraced wall = %.3f\n", overhead)
	return b.String()
}
