package serve

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// genTable builds a table whose every configuration encodes version v:
// IBS carries v and IRS carries v*7+3, so a reader can tell which
// published generation answered it and detect torn configs (an IBS from
// one version paired with an IRS from another).
func genTable(v uint64, kinds ...coll.Kind) *autotune.Table {
	if len(kinds) == 0 {
		kinds = []coll.Kind{coll.Bcast}
	}
	t := &autotune.Table{Machine: "race", Method: "handmade"}
	for _, kind := range kinds {
		for _, m := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
			t.Entries = append(t.Entries, autotune.Entry{
				In: autotune.Input{N: 2, P: 2, M: m, T: kind},
				Cfg: han.Config{
					FS: 1 << 30, IMod: "adapt", SMod: "sm",
					IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary,
					IBS: int(v), IRS: int(v*7 + 3),
				},
			})
		}
	}
	return t
}

// TestSnapshotSwapRace is the serving layer's core consistency check,
// meant to run under -race: readers hammer Decide while a publisher keeps
// swapping snapshots. Every decision must be internally consistent (both
// fields from one table version), must correspond to a version the
// publisher had started publishing, and each reader's observed version
// must never move backwards — the RCU contract: a decision reflects
// exactly one published table generation, never a blend and never a
// rollback past one already seen.
func TestSnapshotSwapRace(t *testing.T) {
	s := NewServer(Options{})

	// published tracks the highest version whose Publish has started; a
	// reader may observe any v in [1, published] depending on timing, but
	// never more.
	var published atomic.Uint64
	published.Store(1)
	s.Publish("race", coll.Bcast, genTable(1))

	const (
		readers   = 8
		swaps     = 300
		queryMask = 0x3f // 64 distinct query sizes
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			var lastSeen uint64
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				m := int(mix64(uint64(self)<<40|seq)&queryMask) + 1
				cfg, err := s.Decide("race", coll.Bcast, m)
				if err != nil {
					t.Errorf("reader %d: Decide: %v", self, err)
					return
				}
				v := uint64(cfg.IBS)
				if uint64(cfg.IRS) != v*7+3 {
					t.Errorf("reader %d: torn config: IBS=%d IRS=%d (want IRS=%d)",
						self, cfg.IBS, cfg.IRS, v*7+3)
					return
				}
				if hi := published.Load(); v < 1 || v > hi {
					t.Errorf("reader %d: decision from unpublished version %d (published <= %d)",
						self, v, hi)
					return
				}
				if v < lastSeen {
					t.Errorf("reader %d: version went backwards: %d after %d", self, v, lastSeen)
					return
				}
				lastSeen = v
			}
		}(r)
	}

	for v := uint64(2); v <= swaps+1; v++ {
		// Record the version as publishable *before* the swap so a reader
		// that races ahead of this goroutine never flags a fresh version
		// as unpublished.
		published.Store(v)
		s.Publish("race", coll.Bcast, genTable(v))
		if v%16 == 0 {
			time.Sleep(100 * time.Microsecond) // let readers in between bursts
		}
	}
	close(stop)
	wg.Wait()

	if c := s.Counters(); c.Decisions == 0 || c.Swaps != swaps+1 {
		t.Fatalf("stress run: %+v, want decisions and %d swaps", c, swaps+1)
	}
	// Final convergence: with swapping done, the latest version serves.
	cfg, err := s.Decide("race", coll.Bcast, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(cfg.IBS) != swaps+1 {
		t.Fatalf("post-swap decision from version %d, want %d", cfg.IBS, swaps+1)
	}
}

// tableIndex returns the address of t's decision index (the unexported
// autotune.Table.idx), to tell a rebuilt index from an untouched one.
func tableIndex(t *autotune.Table) uintptr {
	return reflect.ValueOf(t).Elem().FieldByName("idx").Pointer()
}

// TestMultiKindPublishRace pins the rule install keeps: a table's decision
// index is built exactly once, before the table is reader-visible under
// any key — a rebuild on a later install would write Table.idx under
// concurrent lock-free Decide calls. Readers run under -race against all
// three multi-kind publishers (PublishTable, Retune, the on-demand tune);
// since every store hands readers a happens-before edge that can hide such
// a write from the detector, the rule is also asserted directly: a second
// install of the same *Table leaves its index untouched.
func TestMultiKindPublishRace(t *testing.T) {
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	var version atomic.Uint64
	version.Store(1)
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		return genTable(version.Add(1), kinds...), nil
	}})
	s.PublishTable("race", genTable(1, kinds...))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			cold := 0
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				h := mix64(uint64(self)<<40 | seq)
				cluster := "race"
				if seq%512 == 0 && cold < 8 {
					// Never published: tuned on demand, which installs a
					// two-kind table (and gives Retune one more cluster).
					cluster = fmt.Sprintf("cold-%d-%d", self, cold)
					cold++
				}
				cfg, err := s.Decide(cluster, kinds[h&1], int(h>>8&0x3f)+1)
				if err != nil {
					t.Errorf("reader %d: Decide: %v", self, err)
					return
				}
				if v := uint64(cfg.IBS); uint64(cfg.IRS) != v*7+3 {
					t.Errorf("reader %d: torn config IBS=%d IRS=%d", self, cfg.IBS, cfg.IRS)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 50; round++ {
		table := genTable(version.Add(1), kinds...)
		s.PublishTable("race", table)
		time.Sleep(200 * time.Microsecond) // let readers walk the fresh index
		idx := tableIndex(table)
		s.install(table, Key{"race", coll.Allreduce})
		if tableIndex(table) != idx {
			t.Errorf("round %d: a second install of the same table rebuilt its index", round)
		}
		if _, err := s.Retune(); err != nil {
			t.Errorf("round %d: Retune: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if c := s.Counters(); c.Tunes == 0 {
		t.Errorf("no reader tuned a cluster on demand: %+v", c)
	}
}

// TestPublishTableIsOneSwap: a table's kinds are published by one store. A
// reader that has seen version v under one kind never afterwards sees a
// lower version under the other — which it could while PublishTable stored
// once per kind and a reader could fall between the two stores.
func TestPublishTableIsOneSwap(t *testing.T) {
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	s := NewServer(Options{})
	s.PublishTable("race", genTable(1, kinds...))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			var lastSeen uint64
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				kind := kinds[(uint64(self)+seq)&1] // alternate, so every pair of reads straddles the kinds
				cfg, err := s.Decide("race", kind, 4096)
				if err != nil {
					t.Errorf("reader %d: %v", self, err)
					return
				}
				v := uint64(cfg.IBS)
				if v < lastSeen {
					t.Errorf("reader %d: %s answered from version %d after the other kind answered from %d",
						self, kind, v, lastSeen)
					return
				}
				lastSeen = v
			}
		}(r)
	}
	const publishes = 100
	for v := uint64(2); v <= publishes+1; v++ {
		s.PublishTable("race", genTable(v, kinds...))
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	// Swaps counts snapshots, not stores: two per PublishTable.
	if c := s.Counters(); c.Swaps != 2*(publishes+1) {
		t.Fatalf("Swaps = %d, want %d", c.Swaps, 2*(publishes+1))
	}
}

// TestSnapshotSwapRaceWithRetuner runs the same readers against the real
// background re-tuner instead of a hand-rolled publisher loop.
func TestSnapshotSwapRaceWithRetuner(t *testing.T) {
	var version atomic.Uint64
	version.Store(1)
	// Multi-kind tables: each Retune round installs one *Table under both
	// kinds, the production shape of the index-build-before-visibility rule.
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		return genTable(version.Add(1), kinds...), nil
	}})
	s.PublishTable("race", genTable(1, kinds...))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			lastSeen := [2]uint64{} // per kind
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				h := mix64(uint64(self)<<40 | seq)
				ki := int(h & 1)
				cfg, err := s.Decide("race", kinds[ki], int(h>>8&0xff)+1)
				if err != nil {
					t.Errorf("reader %d: %v", self, err)
					return
				}
				v := uint64(cfg.IBS)
				if uint64(cfg.IRS) != v*7+3 {
					t.Errorf("reader %d: torn config IBS=%d IRS=%d", self, cfg.IBS, cfg.IRS)
					return
				}
				// version is bumped before the table is built, so the
				// published ceiling is version's current value.
				if hi := version.Load(); v > hi {
					t.Errorf("reader %d: version %d beyond tuner ceiling %d", self, v, hi)
					return
				}
				if v < lastSeen[ki] {
					t.Errorf("reader %d: %s version went backwards: %d after %d",
						self, kinds[ki], v, lastSeen[ki])
					return
				}
				lastSeen[ki] = v
			}
		}(r)
	}

	stopRetuner := s.StartRetuner(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for s.Counters().Retunes < 20 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stopRetuner()
	close(stop)
	wg.Wait()

	if got := s.Counters().Retunes; got < 20 {
		t.Fatalf("re-tuner completed %d rounds in 2s, want >= 20", got)
	}
}
