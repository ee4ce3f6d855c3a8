// Package trace is the simulator's observability layer: it records
// timelines of simulated MPI activity — message sends and deliveries,
// collective and task boundaries — plus counter series sampled from the
// flow-level network model, and exports them as JSON or in the Chrome
// trace-event format (chrome://tracing, https://ui.perfetto.dev). The
// ib/sb overlap of Fig 1 shows up as overlapping spans on a leader's
// timeline, and per-resource utilization shows up as counter tracks.
//
// Beyond recording, the package analyses what it recorded: ComputeStats
// aggregates per-task and per-message statistics from an event stream,
// and CriticalPath walks the event dependency DAG (send→deliver edges,
// intra-rank program order) backward from the last rank to finish a
// collective, reporting the longest dependency chain and the time
// breakdown along it.
//
// The event schema, ordering guarantees, and export formats are a
// documented contract — see docs/OBSERVABILITY.md. Everything here is
// deterministic: times are virtual, iteration orders are fixed, and two
// replays of the same simulation serialize byte-identically.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Kind classifies a trace event.
type Kind string

// Event kinds.
const (
	KindSend      Kind = "send"       // Isend issued
	KindDeliver   Kind = "deliver"    // payload matched and copied at the receiver
	KindCollBegin Kind = "coll-begin" // collective entered on a rank
	KindCollEnd   Kind = "coll-end"   // collective completed on a rank
	KindTaskBegin Kind = "task-begin" // HAN task issued (ib, sb, sr, ...)
	KindTaskEnd   Kind = "task-end"   // HAN task completed
	KindDrop      Kind = "drop"       // injected eager-payload loss (fault plans)
	KindNote      Kind = "note"       // degradation note (e.g. HAN flat fallback)
	KindCrash     Kind = "crash"      // injected permanent rank failure (crash plans)
)

// AllKinds lists every event kind the recorder can emit, in a fixed
// order. docs/OBSERVABILITY.md must document each one; the docs-coverage
// test in internal/bench enumerates this slice.
func AllKinds() []Kind {
	return []Kind{
		KindSend, KindDeliver, KindCollBegin, KindCollEnd,
		KindTaskBegin, KindTaskEnd, KindDrop, KindNote, KindCrash,
	}
}

// NoPeer is the Peer value of events that are not point-to-point.
const NoPeer = -1

// Event is one timeline record.
type Event struct {
	// T is the virtual time in seconds.
	T float64 `json:"t"`
	// Rank is the world rank the event belongs to.
	Rank int    `json:"rank"`
	Kind Kind   `json:"kind"`
	Name string `json:"name"` // operation or task label
	// Size is a payload size in bytes, when meaningful (0 is a valid
	// size: a zero-byte message still produces send/deliver events).
	Size int `json:"size"`
	// Peer is the other rank of a point-to-point event, NoPeer (-1)
	// otherwise. Rank 0 is a valid peer, which is why serialization is
	// sentinel-aware rather than omitempty (see MarshalJSON).
	Peer int `json:"peer"`
}

// eventJSON is the wire form of Event: Peer is a pointer so that peer
// rank 0 survives the round trip while non-P2P events omit the field
// entirely. A plain `omitempty` on an int silently dropped peer 0 (and
// size 0) from exports.
type eventJSON struct {
	T    float64 `json:"t"`
	Rank int     `json:"rank"`
	Kind Kind    `json:"kind"`
	Name string  `json:"name"`
	Size int     `json:"size"`
	Peer *int    `json:"peer,omitempty"`
}

// MarshalJSON emits the event with `peer` present exactly when the event
// is point-to-point (Peer != NoPeer); `size` is always present.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{T: e.T, Rank: e.Rank, Kind: e.Kind, Name: e.Name, Size: e.Size}
	if e.Peer != NoPeer {
		p := e.Peer
		j.Peer = &p
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores an event, mapping an absent `peer` field back to
// NoPeer.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*e = Event{T: j.T, Rank: j.Rank, Kind: j.Kind, Name: j.Name, Size: j.Size, Peer: NoPeer}
	if j.Peer != nil {
		e.Peer = *j.Peer
	}
	return nil
}

// CounterSample is one point of a counter series: the value of a named
// quantity (a resource's utilization, a queue depth) at a virtual time.
// Series are piecewise-constant: a sample holds until the next one.
type CounterSample struct {
	T     float64 `json:"t"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Recorder accumulates events and counter samples. The zero value is
// ready to use; a nil *Recorder discards everything, so call sites never
// need nil checks.
type Recorder struct {
	events   []Event
	counters []CounterSample
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record appends an event; no-op on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
}

// RecordCounter appends one counter sample; no-op on a nil recorder.
func (r *Recorder) RecordCounter(t float64, name string, value float64) {
	if r == nil {
		return
	}
	r.counters = append(r.counters, CounterSample{T: t, Name: name, Value: value})
}

// Events returns the recorded events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Counters returns the recorded counter samples in record order.
func (r *Recorder) Counters() []CounterSample {
	if r == nil {
		return nil
	}
	return r.counters
}

// Len returns the number of recorded events (counter samples excluded).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Filter returns the events of one kind. No binary asks: TestRecordAndFilter,
// TestTracedBcastTimeline and the observability tests select with it.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON writes the raw event list as a JSON array (counter samples
// are not included; they are part of the Chrome export). No binary writes
// it: the trace goldens (TestGoldenTraceBits, bench's traceHash) hash it
// and bench.ReplayStream compares it.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Events())
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"` // B=begin, E=end, i=instant, C=counter
	Ts   float64                `json:"ts"` // microseconds
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"` // instant scope
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace exports the events so chrome://tracing or Perfetto can
// render one timeline row per rank: collective and task begin/end pairs
// become spans, sends and deliveries become instant markers, and counter
// samples (e.g. per-resource utilization from flow.Monitor) become "C"
// counter tracks. Span/instant events are emitted first (time-sorted),
// then counter events (record order, which is already time-sorted per
// series); viewers order by ts, and the fixed emission order keeps the
// bytes replay-identical.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := append([]Event(nil), r.Events()...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			Ts:   e.T * 1e6,
			Pid:  0,
			Tid:  e.Rank,
		}
		switch e.Kind {
		case KindCollBegin, KindTaskBegin:
			ce.Ph = "B"
		case KindCollEnd, KindTaskEnd:
			ce.Ph = "E"
		default:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]interface{}{
				"size": fmt.Sprintf("%d", e.Size),
				"peer": fmt.Sprintf("%d", e.Peer),
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	for _, c := range r.Counters() {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: c.Name,
			Ph:   "C",
			Ts:   c.T * 1e6,
			Pid:  0,
			Tid:  0,
			Args: map[string]interface{}{"value": c.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Summary returns per-kind event counts, useful in tests and logs.
func (r *Recorder) Summary() map[Kind]int {
	s := make(map[Kind]int)
	for _, e := range r.Events() {
		s[e.Kind]++
	}
	return s
}
