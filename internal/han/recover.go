package han

import (
	"errors"
	"fmt"
	"sort"

	"github.com/hanrepro/han/internal/mpi"
)

// This file implements hierarchical recovery from permanent rank failures
// (ISSUE: crash-fault tolerance). The mpi layer detects crashed ranks and
// exposes the survivor set (World.DeathEpoch, World.Shrink); HAN consults
// it at collective boundaries and applies the configured FailPolicy:
//
//   - Abort (default): the collective fails fast with a *RankFailedError
//     naming every dead rank and the detection path that declared it;
//   - Shrink: the collective completes on the dense survivor communicator,
//     re-electing a node's group leader when the original died (the first
//     surviving member of the node takes over, exactly as analyze picks
//     group leaders) and rebuilding the two-level task schedule over the
//     survivors.
//
// Recovery is an entry-time decision: ranks already declared dead when a
// collective starts are excluded before any task is issued. A rank dying
// *during* a collective fails the in-flight operations addressed at it
// (*mpi.PeerDeadError), and the collective reports the suspect result as a
// *RankFailedError at exit — the ULFM posture: the operation raises, the
// application reissues, and the next entry shrinks. Survivors must observe
// the same death epoch when they enter a recovering collective (detection
// is deterministic, so waiting out the suspicion interval suffices); a
// split observation wedges and surfaces through the progress watchdog.

// FailPolicy selects how HAN collectives respond to ranks the failure
// detector has declared dead.
type FailPolicy int

const (
	// Abort fails collectives fast with a *RankFailedError naming the dead
	// ranks. The default: losing a rank is an error the application handles.
	Abort FailPolicy = iota
	// Shrink completes collectives on the survivor communicator
	// (World.Shrink), re-electing node leaders as needed.
	Shrink
)

func (fp FailPolicy) String() string {
	switch fp {
	case Abort:
		return "abort"
	case Shrink:
		return "shrink"
	}
	return fmt.Sprintf("FailPolicy(%d)", int(fp))
}

// rankFailed builds the *RankFailedError for op from the failure
// detector's current verdicts: every crashed rank ascending, each with the
// detection path that declared it ("crashed" when not yet declared).
func (h *HAN) rankFailed(op string) *RankFailedError {
	reps := h.W.DeadReports()
	sort.Slice(reps, func(i, j int) bool { return reps[i].Rank < reps[j].Rank })
	e := &RankFailedError{Op: op, Ranks: make([]int, len(reps)), Via: make([]string, len(reps))}
	for i, d := range reps {
		e.Ranks[i] = d.Rank
		e.Via[i] = d.Via
	}
	return e
}

// deadSet returns per-world-rank death flags, nil when nobody is declared.
func (h *HAN) deadSet() []bool {
	dead := h.W.DeadRanks()
	if len(dead) == 0 {
		return nil
	}
	set := make([]bool, h.W.Size())
	for _, r := range dead {
		set[r] = true
	}
	return set
}

// enter applies the failure policy at a collective's entry on communicator
// c. It returns (nil, nil) when no member of c is dead (the normal path),
// (nil, err) with a *RankFailedError when the policy is Abort or the
// collective has no survivor form (canShrink false), and (survivors, nil)
// under Shrink — the caller then runs the collective on the survivor
// communicator: World.Shrink for the world, the live subset of c otherwise
// (cached per death epoch so all members agree on the matching context).
func (h *HAN) enter(c *mpi.Comm, op string, canShrink bool) (*mpi.Comm, error) {
	w := h.W
	if !w.CrashArmed() || w.DeathEpoch() == 0 {
		return nil, nil
	}
	world := c == w.World()
	var live []int
	if !world {
		set := h.deadSet()
		for cr := 0; cr < c.Size(); cr++ {
			if !set[c.WorldRank(cr)] {
				live = append(live, cr)
			}
		}
		if len(live) == c.Size() {
			return nil, nil
		}
	}
	if h.OnFailure != Shrink || !canShrink {
		h.m.recovery("abort")
		return nil, h.rankFailed(op)
	}
	h.m.recovery("shrink")
	if !world {
		return c.Sub(fmt.Sprintf("han:shrink:%d", w.DeathEpoch()), live), nil
	}
	h.countReelections()
	return w.Shrink(), nil
}

// countReelections counts the nodes whose original group leader died while
// other members survive: on those nodes the shrunk hierarchy promotes the
// first surviving member to leader.
func (h *HAN) countReelections() {
	set := h.deadSet()
	if set == nil {
		return
	}
	mach := h.W.Mach
	ppn := mach.Spec.PPN
	for n := 0; n < mach.Spec.Nodes; n++ {
		if !set[n*ppn] {
			continue // original leader alive
		}
		for r := n*ppn + 1; r < (n+1)*ppn; r++ {
			if !set[r] {
				h.m.recovery("reelect")
				break
			}
		}
	}
}

// exitCheck turns a mid-collective death into a *RankFailedError: if the
// death epoch moved while the collective ran, operations addressed at the
// new victim failed underneath the task schedule and the payload is
// suspect. Real errors pass through; a degradation note is overridden (the
// note claims a correct completion the death voided).
func (h *HAN) exitCheck(op string, epoch0 int, err error) error {
	if !h.W.CrashArmed() || h.W.DeathEpoch() == epoch0 {
		return err
	}
	var fb *FallbackError
	if err == nil || errors.As(err, &fb) {
		return h.rankFailed(op)
	}
	return err
}

// recovered wraps a shrunk-path completion in the degradation note the
// world-level entry points hand back: the collective completed correctly,
// on fewer ranks than asked. A real error from the survivor-communicator
// run passes through; that run's own degradation note becomes the cause.
func (h *HAN) recovered(p *mpi.Proc, op string, sc *mpi.Comm, inner error) error {
	var cause error
	if inner != nil {
		var fb *FallbackError
		if !errors.As(inner, &fb) {
			return inner
		}
		cause = inner
	}
	return h.fallback(p, op, fmt.Sprintf("shrunk communicator (%d survivors)", sc.Size()), cause)
}
