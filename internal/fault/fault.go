package fault

import (
	"fmt"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
)

// Link names accepted by LinkFlap.Link.
const (
	LinkNICIn  = "nicIn"
	LinkNICOut = "nicOut"
	LinkMemBus = "memBus"
)

// DropSpec describes eager-message payload drops. The zero value disables
// drops entirely.
type DropSpec struct {
	// Prob is the per-transmission-attempt drop probability in [0, 1).
	// Zero disables drops.
	Prob float64
	// MaxPerMsg caps how many consecutive attempts of one message may be
	// dropped; the next attempt is then forced through, bounding worst-case
	// latency and guaranteeing termination. Zero means DefaultMaxPerMsg.
	MaxPerMsg int
	// RTO is the initial retransmission timeout in seconds; attempt k waits
	// RTO·2^k before retransmitting. Zero means DefaultRTO.
	RTO float64
	// From and Until bound the active window in simulated seconds. Until
	// zero means "until the end of the run".
	From, Until float64
}

// DefaultMaxPerMsg and DefaultRTO fill in zero DropSpec fields.
const (
	DefaultMaxPerMsg = 6
	DefaultRTO       = 100e-6 // 100 µs, a few RTTs on the modelled fabrics
)

func (d DropSpec) enabled() bool { return d.Prob > 0 }

func (d DropSpec) activeAt(t float64) bool {
	if !d.enabled() || t < d.From {
		return false
	}
	return d.Until <= 0 || t < d.Until
}

// LinkFlap degrades one node-level resource over a time window, optionally
// repeating: capacity is multiplied by Factor at each onset and restored
// Duration later.
type LinkFlap struct {
	// Node indexes the affected node.
	Node int
	// Link names the resource: LinkNICIn, LinkNICOut, or LinkMemBus.
	Link string
	// At is the first onset time in simulated seconds.
	At float64
	// Duration is how long each degraded window lasts.
	Duration float64
	// Factor multiplies the resource capacity while degraded; must be
	// positive (use e.g. 0.1 for a 90% degradation).
	Factor float64
	// Repeat, when positive, re-triggers the flap with this period; Count
	// occurrences happen in total (Count <= 0 means one).
	Repeat float64
	Count  int
}

// Straggler scales one rank's send/receive progression overheads over a
// time window, optionally repeating — the classic OS-noise / oversubscribed
// core model.
type Straggler struct {
	// Rank is the affected world rank.
	Rank int
	// At is the first onset time in simulated seconds.
	At float64
	// Duration is how long each burst lasts.
	Duration float64
	// Factor multiplies the rank's overheads while the burst is active;
	// must be positive and is normally > 1 (e.g. 8 for an 8× slowdown).
	Factor float64
	// Repeat, when positive, re-triggers the burst with this period; Count
	// occurrences happen in total (Count <= 0 means one).
	Repeat float64
	Count  int
}

// CrashSpec describes one permanent failure: a rank (or its whole node)
// stops executing forever at a deterministic point. Unlike drops and flaps,
// a crash is not recovered from at the transport level — the failure
// detector declares the victim dead and the upper layers either shrink
// around it or abort (see internal/mpi and internal/han).
type CrashSpec struct {
	// Rank is the world rank that crashes.
	Rank int
	// Node, when true, takes down the victim's entire node: every rank on
	// the node containing Rank dies at the same instant. The HAN case this
	// exercises is a crashed group leader stranding its node group.
	Node bool
	// At is the simulated crash time in seconds. Ignored when AfterColl is
	// set.
	At float64
	// AfterColl, when positive, crashes the victim as it enters its
	// AfterColl-th collective (1-based, counted per rank) instead of at a
	// wall-clock time. At and AfterColl are mutually exclusive.
	AfterColl int
}

// Plan is a full fault schedule. The zero value is the all-zero plan: it
// injects nothing.
type Plan struct {
	Drops      DropSpec
	Flaps      []LinkFlap
	Stragglers []Straggler
	Crashes    []CrashSpec
}

// IsZero reports whether the plan injects nothing at all.
func (p Plan) IsZero() bool {
	return !p.Drops.enabled() && len(p.Flaps) == 0 && len(p.Stragglers) == 0 && len(p.Crashes) == 0
}

// HasCrashes reports whether the plan kills any rank permanently. Suites
// that assert payload correctness on every rank skip such plans and are
// covered by the dedicated crash suites instead.
func (p Plan) HasCrashes() bool { return len(p.Crashes) > 0 }

// Validate reports the first inconsistency in the plan.
func (p Plan) Validate() error {
	d := p.Drops
	if d.Prob < 0 || d.Prob >= 1 {
		return fmt.Errorf("fault: drop probability %v outside [0, 1)", d.Prob)
	}
	if d.MaxPerMsg < 0 || d.RTO < 0 || d.From < 0 {
		return fmt.Errorf("fault: negative drop parameter")
	}
	for i, f := range p.Flaps {
		switch f.Link {
		case LinkNICIn, LinkNICOut, LinkMemBus:
		default:
			return fmt.Errorf("fault: flap %d: unknown link %q", i, f.Link)
		}
		if f.Factor <= 0 {
			return fmt.Errorf("fault: flap %d: factor must be positive, got %v", i, f.Factor)
		}
		if f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("fault: flap %d: need At >= 0 and Duration > 0", i)
		}
		if f.Repeat > 0 && f.Repeat < f.Duration {
			return fmt.Errorf("fault: flap %d: repeat period %v shorter than duration %v", i, f.Repeat, f.Duration)
		}
	}
	for i, s := range p.Stragglers {
		if s.Factor <= 0 {
			return fmt.Errorf("fault: straggler %d: factor must be positive, got %v", i, s.Factor)
		}
		if s.Rank < 0 {
			return fmt.Errorf("fault: straggler %d: negative rank", i)
		}
		if s.At < 0 || s.Duration <= 0 {
			return fmt.Errorf("fault: straggler %d: need At >= 0 and Duration > 0", i)
		}
	}
	for i, c := range p.Crashes {
		if c.Rank < 0 {
			return fmt.Errorf("fault: crash %d: negative rank", i)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d: negative At", i)
		}
		if c.AfterColl < 0 {
			return fmt.Errorf("fault: crash %d: negative AfterColl", i)
		}
		if c.At > 0 && c.AfterColl > 0 {
			return fmt.Errorf("fault: crash %d: At and AfterColl are mutually exclusive", i)
		}
	}
	return nil
}

// Injector is a Plan bound to a run. The World creates one per attached
// plan, handing it the world's seeded RNG; Install then schedules the
// plan's flap and straggler toggles onto the engine.
type Injector struct {
	plan  Plan
	rand  func() float64 // the world's seeded RNG; draws only inside event dispatch
	scale []float64      // per-rank overhead multiplier, 1 when quiet
}

// NewInjector binds plan to a randomness source. rand must be the owning
// world's seeded RNG so (seed, plan) fully determines the run.
func NewInjector(plan Plan, rand func() float64) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Injector{plan: plan, rand: rand}
}

// occurrences calls visit(start, end) for each occurrence of a repeating
// window.
func occurrences(at, duration, repeat float64, count int, visit func(start, end float64)) {
	n := 1
	if repeat > 0 && count > 1 {
		n = count
	}
	for i := 0; i < n; i++ {
		start := at + float64(i)*repeat
		visit(start, start+duration)
	}
}

// Install schedules the plan's link flaps and straggler bursts onto the
// machine's engine. It must be called once, before the simulation runs
// (all windows are scheduled at absolute times). An all-zero plan installs
// nothing.
func (in *Injector) Install(m *cluster.Machine) {
	eng := m.Eng
	for _, f := range in.plan.Flaps {
		if f.Node >= m.Spec.Nodes {
			continue // plan written for a bigger machine; skip silently
		}
		var r *flow.Resource
		switch f.Link {
		case LinkNICIn:
			r = m.NICIn(f.Node)
		case LinkNICOut:
			r = m.NICOut(f.Node)
		case LinkMemBus:
			r = m.MemBus(f.Node)
		}
		base := r.Capacity
		degraded := base * f.Factor
		res := r
		occurrences(f.At, f.Duration, f.Repeat, f.Count, func(start, end float64) {
			eng.At(sim.Time(start), func() { m.Net.SetCapacity(res, degraded) })
			eng.At(sim.Time(end), func() { m.Net.SetCapacity(res, base) })
		})
	}
	if len(in.plan.Stragglers) > 0 {
		in.scale = make([]float64, m.Spec.Ranks())
		for i := range in.scale {
			in.scale[i] = 1
		}
		for _, s := range in.plan.Stragglers {
			if s.Rank >= len(in.scale) {
				continue
			}
			rank, factor := s.Rank, s.Factor
			occurrences(s.At, s.Duration, s.Repeat, s.Count, func(start, end float64) {
				eng.At(sim.Time(start), func() { in.scale[rank] *= factor })
				eng.At(sim.Time(end), func() { in.scale[rank] /= factor })
			})
		}
	}
}

// OverheadScale returns the current overhead multiplier for a rank: 1 when
// no straggler burst is active. The P2P layer multiplies its send/recv
// progression work by this.
func (in *Injector) OverheadScale(rank int) float64 {
	if in == nil || rank >= len(in.scale) {
		return 1
	}
	return in.scale[rank]
}

// DropsEnabled reports whether the plan can ever drop a message. When
// false, the P2P layer keeps its original (ack-free) eager path, so the
// hooks cannot perturb the run.
func (in *Injector) DropsEnabled() bool { return in != nil && in.plan.Drops.enabled() }

// CrashesEnabled reports whether the plan kills any rank permanently.
func (in *Injector) CrashesEnabled() bool { return in != nil && in.plan.HasCrashes() }

// Crashes returns the plan's crash schedule (nil when none).
func (in *Injector) Crashes() []CrashSpec {
	if in == nil {
		return nil
	}
	return in.plan.Crashes
}

// DropEager decides whether the eager payload attempt number `attempt`
// (0-based) issued at simulated time now is lost. Outside the active
// window, or once MaxPerMsg attempts of the same message have been dropped,
// it returns false without drawing randomness; otherwise it draws one
// uniform variate from the world's RNG.
func (in *Injector) DropEager(now float64, attempt int) bool {
	if !in.plan.Drops.activeAt(now) {
		return false
	}
	maxDrops := in.plan.Drops.MaxPerMsg
	if maxDrops <= 0 {
		maxDrops = DefaultMaxPerMsg
	}
	if attempt >= maxDrops {
		return false
	}
	return in.rand() < in.plan.Drops.Prob
}

// RTO returns the retransmission timeout for attempt number `attempt`
// (0-based): the base RTO doubled per attempt, capped at 64× base.
func (in *Injector) RTO(attempt int) float64 {
	base := in.plan.Drops.RTO
	if base <= 0 {
		base = DefaultRTO
	}
	if attempt > 6 {
		attempt = 6
	}
	return base * float64(uint(1)<<uint(attempt))
}
