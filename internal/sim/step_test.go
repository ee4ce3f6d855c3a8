package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// These tests hold the step-driven dispatch to the goroutine one: the same
// randomised workload runs once as goroutine processes, once as Steppers
// without a goroutine and once as goroutine processes that lend their Proc
// to the same Stepper (RunSteps), and the three must see the same thing at
// every instruction — the clock, how many events had been dispatched and how
// many queued — under Run, RunUntil windows, MaxEvents, Stop, Kill and a
// panic.

type diffOp uint8

const (
	dSleep   diffOp = iota // sleep d
	dWait                  // wait for signal a
	dWaitAll               // wait for signals a and b, one park
	dFire                  // fire signal a
	dSpawn                 // spawn a child running prog
	dPanic                 // panic
)

type diffInstr struct {
	op   diffOp
	d    Time
	a, b int
	prog []diffInstr
}

// diffRec is what a process observes when it reaches an instruction (or, at
// pc -1, when it ends or unwinds): equal records mean every event up to here
// was dispatched and queued in the same order.
type diffRec struct {
	t          Time
	dispatched uint64
	seq        uint64
	name       string
	pc         int
}

type diffMode int

const (
	modeGoroutine diffMode = iota
	modeStep
	modeLent
)

// diffWorld is one run of a workload in one mode.
type diffWorld struct {
	e     *Engine
	mode  diffMode
	sigs  []*Signal
	log   []diffRec
	procs []*Proc
}

func (w *diffWorld) rec(p *Proc, pc int) {
	w.log = append(w.log, diffRec{w.e.now, w.e.dispatched, w.e.seq, p.Name(), pc})
}

// unwound is deferred by the goroutine bodies: a killed process records its
// end as it unwinds.
func (w *diffWorld) unwound(p *Proc) {
	if p.Dying() {
		w.rec(p, -1)
	}
}

// spawnStep spawns s as a step-driven process in storage of its own, under
// name.
func spawnStep(e *Engine, name string, s Stepper) *Proc {
	p := new(Proc)
	e.SpawnStep(p, s)
	p.name = name
	return p
}

func (w *diffWorld) spawn(name string, prog []diffInstr) {
	var p *Proc
	switch w.mode {
	case modeGoroutine:
		p = w.e.Spawn(name, func(p *Proc) {
			defer w.unwound(p)
			for pc, in := range prog {
				w.rec(p, pc)
				switch in.op {
				case dSleep:
					p.Sleep(in.d)
				case dWait:
					p.Wait(w.sigs[in.a])
				case dWaitAll:
					waitAll(p, w.sigs[in.a], w.sigs[in.b])
				case dFire:
					w.sigs[in.a].Fire(w.e)
				case dSpawn:
					w.spawn(fmt.Sprintf("%s.%d", name, pc), in.prog)
				case dPanic:
					panic("boom")
				}
			}
			w.rec(p, -1)
		})
	case modeStep:
		p = spawnStep(w.e, name, &diffSteps{w: w, name: name, prog: prog})
	case modeLent:
		p = w.e.Spawn(name, func(p *Proc) {
			defer w.unwound(p)
			p.RunSteps(&diffSteps{w: w, name: name, prog: prog})
		})
	}
	w.procs = append(w.procs, p)
}

// diffSteps is the goroutine body above as a Stepper.
type diffSteps struct {
	w       *diffWorld
	name    string
	prog    []diffInstr
	pc      int
	started bool
}

func (s *diffSteps) Step(p *Proc) bool {
	w := s.w
	s.started = true
	for s.pc < len(s.prog) {
		in := s.prog[s.pc]
		w.rec(p, s.pc)
		s.pc++
		switch in.op {
		case dSleep:
			p.StepSleep(in.d)
			return false
		case dWait:
			p.Arm(w.sigs[in.a], nil)
		case dWaitAll:
			p.Arm(w.sigs[in.a], nil)
			p.Arm(w.sigs[in.b], nil)
		case dFire:
			w.sigs[in.a].Fire(w.e)
			continue
		case dSpawn:
			w.spawn(fmt.Sprintf("%s.%d", s.name, s.pc-1), in.prog)
			continue
		case dPanic:
			panic("boom")
		}
		if p.StepWait() {
			return false
		}
	}
	w.rec(p, -1)
	return true
}

// Unwind records what a goroutine body's defer records. A goroutine killed
// before its start event never runs its body, so a Stepper that never ran
// keeps quiet too.
func (s *diffSteps) Unwind(p *Proc) {
	if s.started {
		s.w.rec(p, -1)
	}
}

// diffProg draws a random program. Every signal a program may wait on is
// also fired by a callback (see diffSetup), so the workload terminates.
func diffProg(rng *rand.Rand, nsig, depth int) []diffInstr {
	prog := make([]diffInstr, 4+rng.Intn(10))
	for i := range prog {
		in := diffInstr{a: rng.Intn(nsig), b: rng.Intn(nsig), d: Time(rng.Intn(4)) * 0.25}
		switch r := rng.Intn(10); {
		case r < 3:
			in.op = dSleep
		case r < 5:
			in.op = dWait
		case r < 7:
			in.op = dWaitAll
		case r < 9 || depth == 0:
			in.op = dFire
		default:
			in.op = dSpawn
			in.prog = diffProg(rng, nsig, depth-1)
		}
		prog[i] = in
	}
	return prog
}

const diffSignals = 12

// diffSetup builds the workload of the given seed in the given mode: twelve
// shared signals (two fired before anything runs, the rest fired by
// callbacks spread over the run unless a process gets there first) and
// twenty-four processes. extra adds the scenario's own events.
func diffSetup(seed int64, mode diffMode, extra func(w *diffWorld)) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorld{e: New(), mode: mode}
	for i := 0; i < diffSignals; i++ {
		s := NewSignal()
		w.sigs = append(w.sigs, s)
		if i < 2 {
			s.Fire(w.e)
		} else {
			w.e.Schedule(Time(rng.Intn(40))*0.125, func() { s.Fire(w.e) })
		}
	}
	for i := 0; i < 24; i++ {
		w.spawn(fmt.Sprintf("p%02d", i), diffProg(rng, diffSignals, 2))
	}
	if extra != nil {
		extra(w)
	}
	return w
}

// diffOutcome is everything a scenario leaves behind.
type diffOutcome struct {
	log        []diffRec
	err        string
	panicked   string
	now        Time
	dispatched uint64
}

func diffRun(w *diffWorld, drive func(e *Engine) error) (out diffOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = fmt.Sprint(r)
		}
		out.log, out.now, out.dispatched = w.log, w.e.now, w.e.dispatched
	}()
	if err := drive(w.e); err != nil {
		out.err = err.Error()
	}
	return out
}

func runAll(e *Engine) error { return e.Run() }

// diffCompare runs one scenario in the three modes over several seeds.
func diffCompare(t *testing.T, extra func(w *diffWorld), drive func(e *Engine) error, check func(t *testing.T, out diffOutcome)) {
	t.Helper()
	for seed := int64(1); seed <= 20; seed++ {
		want := diffRun(diffSetup(seed, modeGoroutine, extra), drive)
		if check != nil {
			check(t, want)
		}
		for _, mode := range []diffMode{modeStep, modeLent} {
			got := diffRun(diffSetup(seed, mode, extra), drive)
			if got.err != want.err || got.panicked != want.panicked || got.now != want.now || got.dispatched != want.dispatched {
				t.Fatalf("seed %d mode %d: ended (err %q, panic %q, now %v, dispatched %d), goroutines ended (err %q, panic %q, now %v, dispatched %d)",
					seed, mode, got.err, got.panicked, got.now, got.dispatched, want.err, want.panicked, want.now, want.dispatched)
			}
			for i := range want.log {
				if i >= len(got.log) || got.log[i] != want.log[i] {
					t.Fatalf("seed %d mode %d: record %d of %d differs: got %+v, goroutines %+v", seed, mode, i, len(want.log), at(got.log, i), want.log[i])
				}
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d mode %d: %d records, goroutines %d", seed, mode, len(got.log), len(want.log))
			}
		}
	}
}

func at(log []diffRec, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

func TestStepDifferentialRun(t *testing.T) {
	diffCompare(t, nil, runAll, func(t *testing.T, out diffOutcome) {
		if out.err != "" || len(out.log) < 100 {
			t.Fatalf("workload ended with %q after %d records", out.err, len(out.log))
		}
	})
}

// Windows cut between and on event times; a Step must never run at or past
// the limit of the window in progress.
func TestStepDifferentialRunUntil(t *testing.T) {
	diffCompare(t, nil, func(e *Engine) error {
		for limit := Time(0.3); ; limit += 0.3 {
			if err := e.RunUntil(limit); err != nil {
				return err
			}
			if _, ok := e.NextEventTime(); !ok {
				return nil
			}
			if e.now >= limit {
				return fmt.Errorf("clock at %v inside RunUntil(%v)", e.now, limit)
			}
		}
	}, nil)
}

func TestStepDifferentialMaxEvents(t *testing.T) {
	for _, budget := range []uint64{40, 97, 150} {
		diffCompare(t, func(w *diffWorld) { w.e.MaxEvents = budget }, runAll, func(t *testing.T, out diffOutcome) {
			if out.dispatched != budget || !strings.Contains(out.err, "event budget") {
				t.Fatalf("budget %d: dispatched %d, err %q", budget, out.dispatched, out.err)
			}
		})
	}
}

func TestStepDifferentialStop(t *testing.T) {
	stop := errors.New("enough")
	diffCompare(t, func(w *diffWorld) {
		w.e.Schedule(1.125, func() { w.e.Stop(stop) })
	}, runAll, func(t *testing.T, out diffOutcome) {
		if out.err != "enough" || out.now != 1.125 {
			t.Fatalf("stopped with %q at %v", out.err, out.now)
		}
	})
}

// Processes are killed from callbacks whatever they are doing then — parked,
// sleeping, not started yet, finished — and one when a signal fires, which
// may be its own doing.
func TestStepDifferentialKill(t *testing.T) {
	diffCompare(t, func(w *diffWorld) {
		w.e.Schedule(0.6, func() {
			for _, i := range []int{1, 5, 9} {
				w.e.Kill(w.procs[i])
			}
		})
		w.spawn("late", []diffInstr{{op: dSleep, d: 1}, {op: dFire, a: 3}})
		late := w.procs[len(w.procs)-1]
		w.e.Schedule(0.5, func() { w.e.Kill(late) })
		w.e.Schedule(0.25, func() {
			w.spawn("unborn", []diffInstr{{op: dFire, a: 4}})
			w.e.Kill(w.procs[len(w.procs)-1])
		})
		w.sigs[2].OnFire(Func(func() { w.e.Kill(w.procs[0]) }), 0)
	}, runAll, nil)
}

func TestStepDifferentialPanic(t *testing.T) {
	diffCompare(t, func(w *diffWorld) {
		w.spawn("bad", []diffInstr{{op: dSleep, d: 0.75}, {op: dWait, a: 0}, {op: dPanic}})
	}, runAll, func(t *testing.T, out diffOutcome) {
		if out.panicked != `sim: process "bad" panicked: boom` {
			t.Fatalf("panic was %q", out.panicked)
		}
	})
}

// A drained queue with step-driven processes still parked is a deadlock, and
// the report names what a goroutine process's would: the first signal still
// unfired, by its label.
func TestStepDeadlockReport(t *testing.T) {
	report := func(mode diffMode) (string, []ParkedProc) {
		e := New()
		fired, never, alsoNever := NewSignal(), NewSignal(), NewSignal()
		fired.Fire(e)
		body := waitLabelled{{fired, "recv(a)"}, {never, "recv(b)"}, {alsoNever, "recv(c)"}}
		switch mode {
		case modeGoroutine:
			e.Spawn("stuck", func(p *Proc) { body.arm(p); p.WaitArmed() })
		case modeStep:
			spawnStep(e, "stuck", &body)
		case modeLent:
			e.Spawn("stuck", func(p *Proc) { p.RunSteps(&body) })
		}
		spawnStep(e, "", &waitLabelled{{never, ""}}).SetNamer(label("rank3.helper"))
		var sites []ParkedProc
		e.Schedule(1, func() { sites = e.ParkedSites() })
		err := e.Run()
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("mode %d: Run returned %v, want a deadlock", mode, err)
		}
		return err.Error(), sites
	}
	wantErr, wantSites := report(modeGoroutine)
	if !strings.Contains(wantErr, "stuck waiting on recv(b)") || !strings.Contains(wantErr, "rank3.helper") {
		t.Fatalf("goroutine deadlock report: %s", wantErr)
	}
	for _, mode := range []diffMode{modeStep, modeLent} {
		gotErr, gotSites := report(mode)
		if gotErr != wantErr {
			t.Errorf("mode %d deadlock report:\n got %s\nwant %s", mode, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotSites, wantSites) {
			t.Errorf("mode %d ParkedSites: got %v, want %v", mode, gotSites, wantSites)
		}
	}
}

type label string

func (l label) String() string { return string(l) }

// waitLabelled waits for all of its signals at once, then finishes.
type waitLabelled []struct {
	s    *Signal
	site label
}

func (w waitLabelled) arm(p *Proc) {
	for _, x := range w {
		if x.site == "" {
			p.Arm(x.s, nil)
		} else {
			p.Arm(x.s, x.site)
		}
	}
}

func (w *waitLabelled) Step(p *Proc) bool {
	if *w == nil {
		return true
	}
	w.arm(p)
	*w = nil
	return !p.StepWait()
}

func (w *waitLabelled) Unwind(*Proc) {}

// A step-driven process killed while parked gets exactly one more dispatch —
// its Unwind, at the Kill's instant — and a later fire of what it waited on
// resumes nothing. Killed while sleeping, it unwinds at the sleep's expiry.
func TestKillStepProc(t *testing.T) {
	e := New()
	s := NewSignal()
	parked := &killProbe{wait: s}
	sleeping := &killProbe{sleep: 10}
	pp := spawnStep(e, "parked", parked)
	sp := spawnStep(e, "sleeping", sleeping)
	e.Schedule(1, func() { e.Kill(pp); e.Kill(sp) })
	e.Schedule(2, func() { s.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []*killProbe{parked, sleeping} {
		if k.steps != 1 || k.unwinds != 1 {
			t.Errorf("%d steps and %d unwinds, want 1 and 1", k.steps, k.unwinds)
		}
	}
	if parked.unwoundAt != 1 || sleeping.unwoundAt != 10 {
		t.Errorf("unwound at %v and %v, want 1 and 10", parked.unwoundAt, sleeping.unwoundAt)
	}
	if !pp.finished || !sp.finished || e.LiveProcs() != 0 {
		t.Errorf("finished %v %v, live %d", pp.finished, sp.finished, e.LiveProcs())
	}
	if e.Goroutines() != 0 || e.Parks() != 0 {
		t.Errorf("step-driven processes cost %d goroutines and %d parks", e.Goroutines(), e.Parks())
	}
}

type killProbe struct {
	wait           *Signal
	sleep          Time
	steps, unwinds int
	unwoundAt      Time
}

func (k *killProbe) Step(p *Proc) bool {
	k.steps++
	if k.steps > 1 {
		return true
	}
	if k.wait != nil {
		p.Arm(k.wait, nil)
		return !p.StepWait()
	}
	p.StepSleep(k.sleep)
	return false
}

func (k *killProbe) Unwind(p *Proc) { k.unwinds++; k.unwoundAt = p.Now() }

// A routine of many blocking steps costs the lending goroutine one park.
func TestRunStepsParksOnce(t *testing.T) {
	e := New()
	var after Time
	e.Spawn("lender", func(p *Proc) {
		p.RunSteps(&sleepSteps{left: 12, d: 0.5})
		after = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 6 {
		t.Errorf("routine ended at %v, want 6", after)
	}
	if e.Goroutines() != 1 || e.Parks() != 1 {
		t.Errorf("%d goroutines, %d parks; want 1 and 1", e.Goroutines(), e.Parks())
	}
}

// sleepSteps sleeps d, left times.
type sleepSteps struct {
	left int
	d    Time
}

func (s *sleepSteps) Step(p *Proc) bool {
	if s.left == 0 {
		return true
	}
	s.left--
	p.StepSleep(s.d)
	return false
}

func (s *sleepSteps) Unwind(*Proc) {}

// A parking call on a process that has no goroutine would block the engine
// goroutine on its own yield channel: every one of them panics instead,
// naming the process, and Run re-raises it as a process's panic.
func TestBlockingCallInsideStepPanics(t *testing.T) {
	unfired := NewSignal()
	for _, c := range []struct {
		name string
		call stepFunc
	}{
		{"Sleep", func(p *Proc) { p.Sleep(1) }},
		{"Wait", func(p *Proc) { p.Wait(unfired) }},
		{"WaitArmed", func(p *Proc) { p.Arm(unfired, nil); p.WaitArmed() }},
		{"RunSteps", func(p *Proc) { p.RunSteps(&sleepSteps{left: 1, d: 1}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			spawnStep(e, "", c.call).SetNamer(label("rank7"))
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, `"rank7"`) || !strings.Contains(got, "blocking call inside a Step") {
					t.Errorf("Run panicked with %q, want the process name and \"blocking call inside a Step\"", got)
				}
			}()
			err := e.Run()
			t.Errorf("Run returned %v, want a panic", err)
		})
	}
	// A wait that finds every signal fired does not park, and is no error.
	e := New()
	fired := NewSignal()
	fired.Fire(e)
	spawnStep(e, "easy", stepFunc(func(p *Proc) { p.Wait(fired) }))
	if err := e.Run(); err != nil {
		t.Errorf("a wait with nothing to wait for: %v", err)
	}
}

// stepFunc is a routine of one Step.
type stepFunc func(p *Proc)

func (f stepFunc) Step(p *Proc) bool { f(p); return true }
func (f stepFunc) Unwind(*Proc)      {}
