package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the benchmark's spans in memory and writes them out when the
// run ends. Spans are recorded only around the benchmark's own calls into
// the program's layers; a span's layer is its name up to the first dot.
// Every traced op has a root span named "op"; its self time is the part of
// the op no layer span covers.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int64
}

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root span
	Op     int64  `json:"op"`     // spans of one op share this
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// traceUnit reports whether repetition i of a workload's work is traced:
// in a traced run every other repetition is, so the untraced ones measure
// the tracing overhead on the same work.
func (t *tracer) traceUnit(i int) bool { return t.on && i%2 == 1 }

// input picks which of n inputs repetition i runs: round robin, except that
// a traced run gives each input two repetitions in a row, one untraced and
// one traced, so the overhead compares the same work.
func (t *tracer) input(i, n int) int {
	if t.on {
		return i / 2 % n
	}
	return i % n
}

// opTrace is the tracing context of one op; a nil *opTrace records nothing.
type opTrace struct {
	t  *tracer
	op int64
}

// startOp opens an op when traced is set; otherwise it returns nil.
func (t *tracer) startOp(traced bool) *opTrace {
	if !traced {
		return nil
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return &opTrace{t: t, op: op}
}

// begin opens a span under parent (-1 for the op root) and returns its ID.
func (o *opTrace) begin(parent int32, name string) int32 {
	if o == nil {
		return -1
	}
	now := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	id := int32(len(o.t.spans))
	o.t.spans = append(o.t.spans, span{ID: id, Parent: parent, Op: o.op, Name: name, Start: now})
	o.t.mu.Unlock()
	return id
}

// end closes span id.
func (o *opTrace) end(id int32) {
	if o == nil {
		return
	}
	now := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans[id].End = now
	o.t.mu.Unlock()
}

// endAs closes span id under a final name, for a call whose outcome
// decides what it was (a poll that found a question).
func (o *opTrace) endAs(id int32, name string) {
	if o == nil {
		return
	}
	now := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans[id].End = now
	o.t.spans[id].Name = name
	o.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// attribute splits every op's root interval into layer self times: each
// instant goes to the deepest span open at that instant (the most recently
// opened one among equals, when concurrent spans overlap), so the layer
// self times of an op add up to the op's duration exactly. It returns the
// self time per layer ("op" for the root's own share) and the summed op
// durations.
func (t *tracer) attribute() (self map[string]int64, total int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self = map[string]int64{}
	byOp := map[int64][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, spans := range byOp {
		depth := make(map[int32]int, len(spans))
		var depthOf func(s span) int
		index := make(map[int32]span, len(spans))
		for _, s := range spans {
			index[s.ID] = s
		}
		depthOf = func(s span) int {
			if d, ok := depth[s.ID]; ok {
				return d
			}
			d := 0
			if p, ok := index[s.Parent]; ok {
				d = depthOf(p) + 1
			}
			depth[s.ID] = d
			return d
		}
		type edge struct {
			at    int64
			open  bool
			order int // opens sort after closes at the same instant
			s     span
		}
		var edges []edge
		for _, s := range spans {
			if s.Parent < 0 {
				total += s.End - s.Start
			}
			if s.End <= s.Start {
				continue // covers no time; its close would sort before its open
			}
			edges = append(edges, edge{s.Start, true, 1, s}, edge{s.End, false, 0, s})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].order < edges[j].order
		})
		var active []span
		for i, e := range edges {
			if e.open {
				active = append(active, e.s)
			} else {
				for k := range active {
					if active[k].ID == e.s.ID {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
			}
			if i+1 == len(edges) || len(active) == 0 {
				continue
			}
			gap := edges[i+1].at - e.at
			if gap <= 0 {
				continue
			}
			top := active[0]
			for _, s := range active[1:] {
				if d, td := depthOf(s), depthOf(top); d > td || (d == td && s.Start >= top.Start) {
					top = s
				}
			}
			self[layerOf(top.Name)] += gap
		}
	}
	return self, total
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
