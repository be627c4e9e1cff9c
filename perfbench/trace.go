package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Parent is the enclosing span's ID (0 at
// the root); Start and End are offsets from the tracer's epoch.
type span struct {
	ID, Parent int64
	Layer      string
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the serve workload records handler spans on server
// goroutines.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// rec times calls into the program. On a traced pass (tr non-nil) each
// call is also recorded as a span under the enclosing one and runs
// under the pprof label layer=<layer>, so a CPU profile taken during
// the pass attributes its samples to layers.
type rec struct {
	tr     *tracer
	ctx    context.Context
	parent int64
}

// call runs fn as one call into layer, returning its wall time.
func (r rec) call(layer, name string, fn func(r rec) error) (time.Duration, error) {
	if r.tr == nil {
		t0 := time.Now()
		err := fn(r)
		return time.Since(t0), err
	}
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	id := r.tr.ids.Add(1)
	var (
		d   time.Duration
		err error
	)
	pprof.Do(ctx, pprof.Labels("layer", layer), func(ctx context.Context) {
		start := time.Now()
		err = fn(rec{tr: r.tr, ctx: ctx, parent: id})
		end := time.Now()
		d = end.Sub(start)
		r.tr.add(span{ID: id, Parent: r.parent, Layer: layer, Name: name,
			Start: start.Sub(r.tr.epoch), End: end.Sub(r.tr.epoch)})
	})
	return d, err
}

// selfTimes sums, per layer, each span's self time: its duration minus
// the part of it that its child spans cover. Children that overlap each
// other (concurrent calls) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}

// writeSpans writes spans as Chrome trace_event JSON (loadable in
// Perfetto), one complete event per span.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int64{"id": s.ID, "parent": s.Parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
