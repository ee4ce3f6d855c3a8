package han

import "github.com/hanrepro/han/internal/metrics"

// hanMetrics holds the framework's instrument handles. Always non-nil on
// a HAN instance; the zero value's nil handles no-op, so task hot paths
// hook in unconditionally. Every series is cached here after its first
// lookup — the per-operation ones (collectives entered, fallbacks taken,
// recovery actions) by label value — so with metrics off a hook is a nil
// check, and with them on it builds no label set and asks the registry
// nothing.
type hanMetrics struct {
	reg *metrics.Registry

	colls, fallbacks, recoveries map[string]*metrics.Counter

	// tasks caches the han_tasks series per (task, level). The four
	// two-level ones are registered up front; the others on first use, so a
	// two-level run exports exactly the series it always did.
	tasks       [numStageOps][numLevelKinds]*metrics.Counter
	taskSeconds *metrics.Histogram
	segsPerColl *metrics.Histogram
}

// EnableMetrics registers HAN's metric families with reg and starts
// counting: tasks issued per kind and hierarchy level, task durations,
// segments per collective call, collectives entered, and fallbacks taken.
// Observation-only; a nil registry leaves metrics disabled.
func (h *HAN) EnableMetrics(reg *metrics.Registry) {
	h.m = &hanMetrics{
		reg:        reg,
		colls:      make(map[string]*metrics.Counter),
		fallbacks:  make(map[string]*metrics.Counter),
		recoveries: make(map[string]*metrics.Counter),
		taskSeconds: reg.Histogram(metrics.Opts{
			Name: "han_task_seconds", Help: "Virtual-time duration of HAN tasks.", Unit: "seconds",
		}, metrics.ExpBuckets(1e-6, 4, 12)),
		segsPerColl: reg.Histogram(metrics.Opts{
			Name: "han_segments_per_collective", Help: "Pipeline segments per collective call (one observation per rank).",
		}, metrics.ExpBuckets(1, 2, 8)),
	}
	for _, op := range []stageOp{opDown, opUp} {
		for _, kind := range []levelKind{lvIntra, lvInter} {
			h.m.taskCounter(op, kind)
		}
	}
}

// taskCounter returns the han_tasks series of one task on one level kind,
// registering it on first use; nil with metrics off.
func (m *hanMetrics) taskCounter(op stageOp, kind levelKind) *metrics.Counter {
	c := &m.tasks[op][kind]
	if *c == nil && m.reg != nil {
		*c = m.reg.Counter(metrics.Opts{
			Name: "han_tasks", Help: "HAN tasks issued, by task kind and hierarchy level.",
			Labels: map[string]string{"task": taskNames[op][kind], "level": levelLabels[kind]},
		})
	}
	return *c
}

// count adds one to the series of a per-operation family whose single label
// holds value, looking the series up once and caching it in series. The nil
// check comes before anything is built: with metrics off a hook costs that.
func (m *hanMetrics) count(series map[string]*metrics.Counter, name, help, label, value string) {
	if m.reg == nil {
		return
	}
	c := series[value]
	if c == nil {
		c = m.reg.Counter(metrics.Opts{Name: name, Help: help, Labels: map[string]string{label: value}})
		series[value] = c
	}
	c.Inc()
}

// collEntered counts one rank entering the named collective.
func (m *hanMetrics) collEntered(op string) {
	m.count(m.colls, "han_collectives", "Collective entries, by operation (one per rank per call).", "op", op)
}

// recovery counts one rank taking a crash-recovery action at a collective
// boundary: "shrink" (completing on the survivor communicator), "abort"
// (failing fast with a *RankFailedError), or "reelect" (a node whose dead
// group leader was replaced by its first surviving member).
func (m *hanMetrics) recovery(action string) {
	m.count(m.recoveries, "han_recovery", "Crash-recovery actions at collective boundaries, by action.", "action", action)
}

// fallbackTaken counts one rank completing the named collective through a
// degraded path.
func (m *hanMetrics) fallbackTaken(op string) {
	m.count(m.fallbacks, "han_fallbacks", "Collective completions through a degraded (fallback) path, by operation.", "op", op)
}
