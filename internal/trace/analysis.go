package trace

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements post-hoc analysis over a recorded event stream:
// span pairing, aggregate statistics, and critical-path extraction over
// the event dependency DAG. The algorithms and their guarantees are part
// of the documented trace contract (docs/OBSERVABILITY.md §5).

// Span is one paired begin/end interval on a rank: a task (ib, sb, ...)
// or a whole collective.
type Span struct {
	Rank int
	Name string
	// Begin and End are virtual times in seconds.
	Begin, End float64
	Size       int
	// Task is true for task spans, false for collective spans.
	Task bool
}

// Spans pairs begin/end events into intervals. Events of one (rank,
// name) pair are matched FIFO: the k-th end closes the k-th begin, which
// is exact for HAN's schedules (a rank never runs two same-named tasks
// concurrently). Unclosed begins are dropped.
func Spans(events []Event) []Span {
	type key struct {
		rank int
		name string
		task bool
	}
	open := make(map[key][]int) // indices into out, FIFO
	var out []Span
	for _, e := range events {
		var task bool
		switch e.Kind {
		case KindTaskBegin, KindTaskEnd:
			task = true
		case KindCollBegin, KindCollEnd:
			task = false
		default:
			continue
		}
		k := key{e.Rank, e.Name, task}
		switch e.Kind {
		case KindTaskBegin, KindCollBegin:
			out = append(out, Span{Rank: e.Rank, Name: e.Name, Begin: e.T, End: -1, Size: e.Size, Task: task})
			open[k] = append(open[k], len(out)-1)
		case KindTaskEnd, KindCollEnd:
			q := open[k]
			if len(q) == 0 {
				continue // unmatched end; tolerate truncated streams
			}
			out[q[0]].End = e.T
			open[k] = q[1:]
		}
	}
	// Drop unclosed spans.
	w := 0
	for _, s := range out {
		if s.End >= 0 {
			out[w] = s
			w++
		}
	}
	return out[:w]
}

// TaskStat aggregates the spans of one name.
type TaskStat struct {
	Name    string
	Count   int
	Seconds float64 // sum of span durations
}

// KindCount is one per-kind event tally.
type KindCount struct {
	Kind Kind
	N    int
}

// MsgStats aggregates point-to-point activity.
type MsgStats struct {
	Sends, Delivers, Drops int
	Bytes                  int64 // sum of sent payload sizes
	// Latency of matched send→deliver pairs (seconds).
	Matched                  int
	MinLat, MaxLat, TotalLat float64
}

// Stats is the aggregate view of one event stream.
type Stats struct {
	Events int
	Ranks  int // distinct ranks observed
	// First and Last bound the stream in virtual time.
	First, Last float64
	Kinds       []KindCount // in AllKinds order, zero-count kinds omitted
	Colls       []TaskStat  // collective spans, sorted by name
	Tasks       []TaskStat  // task spans, sorted by name
	Msg         MsgStats
	Notes       []string // degradation notes, in record order
}

// ComputeStats aggregates an event stream. The result is deterministic:
// slices are sorted by fixed keys, never map order.
func ComputeStats(events []Event) *Stats {
	st := &Stats{Events: len(events)}
	if len(events) == 0 {
		return st
	}
	st.First, st.Last = events[0].T, events[0].T
	kinds := make(map[Kind]int)
	ranks := make(map[int]bool)
	for _, e := range events {
		kinds[e.Kind]++
		ranks[e.Rank] = true
		if e.T < st.First {
			st.First = e.T
		}
		if e.T > st.Last {
			st.Last = e.T
		}
		switch e.Kind {
		case KindSend:
			st.Msg.Sends++
			st.Msg.Bytes += int64(e.Size)
		case KindDeliver:
			st.Msg.Delivers++
		case KindDrop:
			st.Msg.Drops++
		case KindNote:
			st.Notes = append(st.Notes, e.Name)
		}
	}
	st.Ranks = len(ranks)
	for _, k := range AllKinds() {
		if n := kinds[k]; n > 0 {
			st.Kinds = append(st.Kinds, KindCount{Kind: k, N: n})
		}
	}
	// Span aggregates.
	tasks := make(map[string]*TaskStat)
	colls := make(map[string]*TaskStat)
	for _, s := range Spans(events) {
		m := colls
		if s.Task {
			m = tasks
		}
		ts := m[s.Name]
		if ts == nil {
			ts = &TaskStat{Name: s.Name}
			m[s.Name] = ts
		}
		ts.Count++
		ts.Seconds += s.End - s.Begin
	}
	st.Tasks = sortedStats(tasks)
	st.Colls = sortedStats(colls)
	// Send→deliver latency over matched FIFO pairs.
	for _, m := range matchMessages(events) {
		lat := m.deliver.T - m.send.T
		st.Msg.Matched++
		st.Msg.TotalLat += lat
		if st.Msg.Matched == 1 || lat < st.Msg.MinLat {
			st.Msg.MinLat = lat
		}
		if lat > st.Msg.MaxLat {
			st.Msg.MaxLat = lat
		}
	}
	return st
}

func sortedStats(m map[string]*TaskStat) []TaskStat {
	out := make([]TaskStat, 0, len(m))
	for _, ts := range m {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// msgPair is one matched send→deliver dependency: indices into the
// event stream.
type msgPair struct {
	send, deliver Event
	sendIdx       int
	deliverIdx    int
}

// matchMessages pairs sends with deliveries FIFO per directed (src, dst)
// rank pair — exact under MPI's per-pair non-overtaking guarantee, which
// the runtime enforces (docs/OBSERVABILITY.md §3). Unmatched sends
// (stream truncated mid-flight) are omitted.
func matchMessages(events []Event) []msgPair {
	type pk struct{ src, dst int }
	pending := make(map[pk][]int) // send event indices, FIFO
	var out []msgPair
	for i, e := range events {
		switch e.Kind {
		case KindSend:
			k := pk{e.Rank, e.Peer}
			pending[k] = append(pending[k], i)
		case KindDeliver:
			k := pk{e.Peer, e.Rank}
			q := pending[k]
			if len(q) == 0 {
				continue
			}
			out = append(out, msgPair{send: events[q[0]], deliver: e, sendIdx: q[0], deliverIdx: i})
			pending[k] = q[1:]
		}
	}
	return out
}

// CPStep is one segment of a critical path, chronological. For rank
// segments, Label is the "+"-joined sorted set of task spans active on
// the rank during the segment ("ib+sb" is HAN's overlap made visible),
// or "idle" when no task span covers it. For network segments, Label is
// "net src->dst" and Rank is the destination.
type CPStep struct {
	Rank     int
	From, To float64
	Label    string
	// Class is "task", "net", or "idle"; with a known PPN, network
	// segments refine to "net-inter" / "net-intra".
	Class string
}

// Seconds returns the step duration.
func (s CPStep) Seconds() float64 { return s.To - s.From }

// CritPath is the longest dependency chain ending at the last rank to
// complete a collective.
type CritPath struct {
	// Op is the collective whose completion anchors the path (the name
	// of the last coll-end event).
	Op string
	// Start and End bound the path; End-Start is the path length, which
	// equals the collective's completion time when the walk terminates at
	// the root's coll-begin (the common case for a single traced
	// collective).
	Start, End float64
	Steps      []CPStep
	// Breakdown sums step durations by label, sorted by descending
	// seconds then name.
	Breakdown []TaskStat
}

// Len returns the path length in seconds.
func (c *CritPath) Len() float64 { return c.End - c.Start }

// OverlapSeconds returns the total path time during which both a task
// named a and a task named b were active (steps whose label contains
// both), e.g. OverlapSeconds("ib", "sb") measures the sbib overlap on
// the critical path.
func (c *CritPath) OverlapSeconds(a, b string) float64 {
	sum := 0.0
	for _, s := range c.Steps {
		if s.Class != "task" {
			continue
		}
		parts := strings.Split(s.Label, "+")
		has := func(name string) bool {
			for _, p := range parts {
				if p == name {
					return true
				}
			}
			return false
		}
		if has(a) && has(b) {
			sum += s.Seconds()
		}
	}
	return sum
}

// CriticalPath extracts the critical path of the last collective in the
// stream. ppn, when positive, classifies network hops as inter- or
// intra-node (block rank placement); pass 0 when unknown.
//
// The walk starts at the latest coll-end event and repeatedly asks what
// enabled the current event: a deliver event is enabled by its matched
// send (a network edge, crossing ranks), and any other event by its
// predecessor in the rank's program order. The walk stops at a
// coll-begin. Because every edge spans exactly the virtual time between
// its endpoints, the reported length telescopes to End-Start; what the
// path adds is the *attribution* — which rank, task overlap set, or
// network hop each slice of that time belongs to.
func CriticalPath(events []Event, ppn int) (*CritPath, error) {
	// Locate the path anchor: the latest coll-end (ties: last recorded).
	anchor := -1
	for i, e := range events {
		if e.Kind == KindCollEnd && (anchor < 0 || e.T >= events[anchor].T) {
			anchor = i
		}
	}
	if anchor < 0 {
		return nil, fmt.Errorf("trace: no coll-end event in stream; cannot anchor a critical path")
	}

	// Per-rank program order: indices into events, record order (the
	// engine records in non-decreasing virtual time).
	byRank := make(map[int][]int)
	posInRank := make(map[int]int) // event index -> position in its rank list
	for i, e := range events {
		posInRank[i] = len(byRank[e.Rank])
		byRank[e.Rank] = append(byRank[e.Rank], i)
	}
	// Deliver event index -> matched send event index.
	sendOf := make(map[int]int)
	for _, m := range matchMessages(events) {
		sendOf[m.deliverIdx] = m.sendIdx
	}

	taskSpans := make(map[int][]Span) // rank -> task spans
	for _, s := range Spans(events) {
		if s.Task {
			taskSpans[s.Rank] = append(taskSpans[s.Rank], s)
		}
	}

	cp := &CritPath{Op: events[anchor].Name, End: events[anchor].T}
	var steps []CPStep // built backward
	cur := anchor
	for {
		e := events[cur]
		if e.Kind == KindDeliver {
			si, ok := sendOf[cur]
			if !ok {
				// Unmatched deliver (truncated stream): stop here.
				break
			}
			send := events[si]
			label := fmt.Sprintf("net %d->%d", send.Rank, e.Rank)
			class := "net"
			if ppn > 0 {
				if send.Rank/ppn == e.Rank/ppn {
					class = "net-intra"
				} else {
					class = "net-inter"
				}
			}
			if e.T > send.T {
				steps = append(steps, CPStep{Rank: e.Rank, From: send.T, To: e.T, Label: label, Class: class})
			}
			cur = si
			continue
		}
		if e.Kind == KindCollBegin {
			break
		}
		p := posInRank[cur]
		if p == 0 {
			break // first event on this rank
		}
		prev := byRank[e.Rank][p-1]
		pe := events[prev]
		if e.T > pe.T {
			steps = append(steps, rankSteps(e.Rank, pe.T, e.T, taskSpans[e.Rank])...)
		}
		cur = prev
	}
	cp.Start = events[cur].T

	// Reverse into chronological order and merge adjacent equal-label
	// steps on the same rank.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	var merged []CPStep
	for _, s := range steps {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.Rank == s.Rank && last.Label == s.Label && last.Class == s.Class && last.To == s.From {
				last.To = s.To
				continue
			}
		}
		merged = append(merged, s)
	}
	cp.Steps = merged

	agg := make(map[string]*TaskStat)
	for _, s := range cp.Steps {
		ts := agg[s.Label]
		if ts == nil {
			ts = &TaskStat{Name: s.Label}
			agg[s.Label] = ts
		}
		ts.Count++
		ts.Seconds += s.Seconds()
	}
	cp.Breakdown = sortedStats(agg)
	sort.SliceStable(cp.Breakdown, func(i, j int) bool {
		if cp.Breakdown[i].Seconds != cp.Breakdown[j].Seconds {
			return cp.Breakdown[i].Seconds > cp.Breakdown[j].Seconds
		}
		return cp.Breakdown[i].Name < cp.Breakdown[j].Name
	})
	return cp, nil
}

// rankSteps attributes the rank-local interval [a, b] (built backward,
// so returned steps are in reverse-chronological order) to the task
// spans active on the rank: the interval is split at every span boundary
// inside it, and each slice is labelled with the sorted "+"-joined names
// of the spans covering it, or "idle" when none do.
func rankSteps(rank int, a, b float64, spans []Span) []CPStep {
	// Collect cut points inside (a, b).
	cuts := []float64{a, b}
	for _, s := range spans {
		if s.Begin > a && s.Begin < b {
			cuts = append(cuts, s.Begin)
		}
		if s.End > a && s.End < b {
			cuts = append(cuts, s.End)
		}
	}
	sort.Float64s(cuts)
	var out []CPStep
	// Build backward: iterate slices from the last to the first.
	for i := len(cuts) - 1; i > 0; i-- {
		lo, hi := cuts[i-1], cuts[i]
		if hi <= lo {
			continue
		}
		// float64(...) rounds the product, so no architecture fuses it (make fma).
		mid := lo + float64((hi-lo)/2)
		var active []string
		for _, s := range spans {
			if s.Begin <= mid && mid < s.End {
				active = append(active, s.Name)
			}
		}
		label, class := "idle", "idle"
		if len(active) > 0 {
			sort.Strings(active)
			// Dedup concurrent same-named spans.
			w := 0
			for _, n := range active {
				if w == 0 || active[w-1] != n {
					active[w] = n
					w++
				}
			}
			label, class = strings.Join(active[:w], "+"), "task"
		}
		out = append(out, CPStep{Rank: rank, From: lo, To: hi, Label: label, Class: class})
	}
	return out
}
