package main

import (
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark
// around its own call into that layer. Host spans are in nanoseconds since
// the recorder was created; sim spans (Clock "sim") are in simulated
// nanoseconds since the op's engine started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Op     int    `json:"op"`     // the op (request) the span belongs to
	Name   string `json:"name"`
	Clock  string `json:"clock"` // "host" or "sim"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Span ids are dense:
// span id i is spans[i-1]. The mutex lets the serve workloads' connections
// share one recorder; they sample 1 op in 1000, so it is never contended.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a host-clock span and returns its id; end closes it. Both are
// no-ops on a nil recorder, which is what an untraced op passes.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	return r.add(name, "host", parent, op, time.Since(r.epoch).Nanoseconds(), 0)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span on either clock with explicit bounds.
func (r *recorder) add(name, clock string, parent, op int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Clock: clock, Start: start, End: end})
	return id
}

func (r *recorder) duration(id int) time.Duration {
	s := r.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children on the same clock cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			if k.Clock != s.Clock {
				continue
			}
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums host-clock self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		if s.Clock == "host" {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

type traceFile struct {
	Workload string           `json:"workload"`
	Host     hostRecord       `json:"host"`
	Seed     uint64           `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

// writeTrace writes the recorded spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, r *recorder) error {
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"),
		traceFile{Workload: workload, Host: hostInfo(), Seed: seed, SelfNs: selfByName(r.spans), Spans: r.spans})
}
