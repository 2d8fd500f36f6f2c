package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitAdvancesTime(t *testing.T) {
	e := NewEngine()
	var end float64
	e.Spawn("p", func(p *Process) {
		p.Wait(1.5)
		p.Wait(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Errorf("end time = %v, want 4.0", end)
	}
	if e.Now() != 4.0 {
		t.Errorf("engine time = %v, want 4.0", e.Now())
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	record := func(s string) { trace = append(trace, s) }
	e.Spawn("a", func(p *Process) {
		p.Wait(1)
		record("a@1")
		p.Wait(2)
		record("a@3")
	})
	e.Spawn("b", func(p *Process) {
		p.Wait(2)
		record("b@2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "a@3"}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace = %v, want %v", trace, want)
			break
		}
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 11) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Many events with tied times, some scheduled from inside callbacks,
// fire in (time, scheduling order) — the heap's only contract.
func TestEventsFireInOrderAtScale(t *testing.T) {
	e := NewEngine()
	type fired struct {
		at  float64
		seq int
	}
	var got []fired
	seq := 0
	x := uint32(7)
	var schedule func(t float64, depth int)
	schedule = func(t float64, depth int) {
		seq++
		id := seq
		e.At(t, func() {
			got = append(got, fired{e.now, id})
			if depth < 2 {
				x = x*1664525 + 1013904223
				schedule(e.now+float64(x%5), depth+1)
			}
		})
	}
	for i := 0; i < 400; i++ {
		x = x*1664525 + 1013904223
		schedule(float64(x%50), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1200 {
		t.Fatalf("fired %d events, want 1200", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d fired at %v (seq %d) after %v (seq %d)", i, b.at, b.seq, a.at, a.seq)
		}
	}
}

func TestConditionFireBeforeAwait(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	e.At(1, func() { c.Fire() })
	var at float64
	e.Spawn("p", func(p *Process) {
		p.Wait(5)
		c.Await(p) // already fired: returns immediately
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Errorf("await returned at %v, want 5", at)
	}
	if !c.Fired() {
		t.Error("condition not fired")
	}
}

func TestConditionAwaitThenFire(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	e.At(7, func() { c.Fire() })
	var at float64
	e.Spawn("p", func(p *Process) {
		c.Await(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Errorf("await returned at %v, want 7", at)
	}
}

func TestAwaitAll(t *testing.T) {
	e := NewEngine()
	c1, c2, c3 := e.NewCondition(), e.NewCondition(), e.NewCondition()
	e.At(1, func() { c2.Fire() })
	e.At(4, func() { c1.Fire() })
	e.At(2, func() { c3.Fire() })
	var at float64
	e.Spawn("p", func(p *Process) {
		AwaitAll(p, c1, c2, c3)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Errorf("AwaitAll returned at %v, want 4", at)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition() // never fired
	e.Spawn("stuck", func(p *Process) {
		c.Await(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run = %v, want ErrDeadlock", err)
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Process) {
		p.Wait(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run should report the panic")
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("p", func(p *Process) {
		p.WaitUntil(3)
		times = append(times, p.Now())
		p.WaitUntil(1) // in the past: no-op
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 3 || times[1] != 3 {
		t.Errorf("times = %v, want [3 3]", times)
	}
}

func TestManyProcesses(t *testing.T) {
	e := NewEngine()
	const n = 500
	var total atomic.Int64
	for i := 0; i < n; i++ {
		d := float64(i%17) * 0.001
		e.Spawn("p", func(p *Process) {
			p.Wait(d)
			p.Wait(d)
			total.Add(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != n {
		t.Errorf("%d processes finished, want %d", total.Load(), n)
	}
	if want := 2 * 16 * 0.001; math.Abs(e.Now()-want) > 1e-12 {
		t.Errorf("final time %v, want %v", e.Now(), want)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Wait(-1) })
	if err := e.Run(); err == nil {
		t.Error("negative wait should fail the run")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestProcessName(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank-7", func(p *Process) {
		if p.Name() != "rank-7" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Processes communicating through conditions must see a consistent clock:
// the firing process's time is the awaiting process's wake time.
func TestConditionHandshakeTime(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	var fireAt, wakeAt float64
	e.Spawn("firer", func(p *Process) {
		p.Wait(2.5)
		fireAt = p.Now()
		c.Fire()
	})
	e.Spawn("waiter", func(p *Process) {
		c.Await(p)
		wakeAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fireAt != 2.5 || wakeAt != 2.5 {
		t.Errorf("fireAt=%v wakeAt=%v, want both 2.5", fireAt, wakeAt)
	}
}

func BenchmarkWaitChain(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(0.001)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestDeadlockReportNamesBlockedProcesses(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition() // never fired
	e.Spawn("recv3", func(p *Process) {
		c.AwaitOp(p, "Recv", 3, 42)
	})
	e.Spawn("plain", func(p *Process) {
		c.Await(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	for _, want := range []string{"2 blocked", "recv3", "Recv(peer=3, tag=42)", "plain"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q: %s", want, msg)
		}
	}
}

func TestDeadlockReportCapsProcessList(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	for i := 0; i < 12; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) { c.Await(p) })
	}
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "12 blocked") || !strings.Contains(msg, "more") {
		t.Errorf("capped deadlock report should count all 12 and note the overflow: %s", msg)
	}
}

type countingObserver struct {
	advances, blocks, wakes int
	lastNow                 float64
	maxQueue                int
}

func (o *countingObserver) OnAdvance(now float64, fired, queueDepth int) {
	o.advances++
	o.lastNow = now
	if queueDepth > o.maxQueue {
		o.maxQueue = queueDepth
	}
}
func (o *countingObserver) OnBlock(proc string, now float64) { o.blocks++ }
func (o *countingObserver) OnWake(proc string, now float64, wallLatency float64) {
	o.wakes++
	if wallLatency < 0 {
		panic("negative wake latency")
	}
}

func TestObserverSeesAdvancesAndBlocks(t *testing.T) {
	e := NewEngine()
	obs := &countingObserver{}
	e.SetObserver(obs)
	c := e.NewCondition()
	e.Spawn("waiter", func(p *Process) {
		c.Await(p)
	})
	e.Spawn("firer", func(p *Process) {
		p.Wait(2)
		c.Fire()
		p.Wait(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.advances == 0 {
		t.Error("observer saw no event advances")
	}
	if obs.blocks == 0 || obs.wakes != obs.blocks {
		t.Errorf("observer saw %d blocks and %d wakes, want equal and > 0", obs.blocks, obs.wakes)
	}
	if obs.lastNow != 3 {
		t.Errorf("last observed time = %v, want 3", obs.lastNow)
	}
}

func TestNilObserverCostsNothing(t *testing.T) {
	// The disabled path must not allocate: block labels are static strings
	// and the observer hook is one nil check.
	e := NewEngine()
	c := e.NewCondition()
	e.Spawn("a", func(p *Process) { c.AwaitOp(p, "Recv", 1, 7) })
	e.Spawn("b", func(p *Process) { p.Wait(1); c.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeOrder pins the order in which processes woken at one instant
// resume (see Engine): each release and wake takes the next slot and
// pushes its occupant to the back of the queue, Run releases in spawn
// order (so the last one spawned runs first), a block or exit moves the
// slot's occupant to the back too, and events at an instant fire only
// once no process is runnable.
func TestResumeOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	resume := func(p *Process) { log = append(log, fmt.Sprintf("%s@%g", p.Name(), p.Now())) }
	x, y, z, w := e.NewCondition(), e.NewCondition(), e.NewCondition(), e.NewCondition()
	e.At(1, x.Fire) // wakes A, B, C, in the order they awaited
	e.Spawn("F", func(p *Process) {
		resume(p)
		p.Wait(1) // woken at 1 after A, B and C, so F takes the slot
		resume(p)
		y.Fire() // D takes the slot
		z.Fire() // E takes it; D goes behind A, B, C
		e.At(p.Now(), func() { log = append(log, fmt.Sprintf("event@%g", e.now)) })
		p.Wait(1) // E goes behind D
		resume(p)
	})
	for _, name := range []string{"A", "B"} {
		e.Spawn(name, func(p *Process) {
			resume(p)
			x.Await(p)
			resume(p)
		})
	}
	e.Spawn("C", func(p *Process) {
		resume(p)
		x.Await(p)
		resume(p)
		w.Fire() // G takes the slot and goes behind E when C exits
	})
	for _, proc := range []struct {
		name string
		c    *Condition
	}{{"D", y}, {"E", z}, {"G", w}} {
		e.Spawn(proc.name, func(p *Process) {
			resume(p)
			proc.c.Await(p)
			resume(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"G@0", "F@0", "A@0", "B@0", "C@0", "D@0", "E@0",
		"F@1", "A@1", "B@1", "C@1", "D@1", "E@1", "G@1", "event@1",
		"F@2",
	}
	if strings.Join(log, " ") != strings.Join(want, " ") {
		t.Errorf("resume order\n got %v\nwant %v", log, want)
	}
}

// Process bodies never overlap: a plain counter of running bodies, kept
// by 64 processes across thousands of blocks woken by events and by one
// another, never exceeds 1 (and under -race the accesses are ordered).
func TestOneProcessRunsAtATime(t *testing.T) {
	e := NewEngine()
	const procs, rounds = 64, 40
	fired := make([][]*Condition, rounds)
	for k := range fired {
		fired[k] = make([]*Condition, procs)
		for i := range fired[k] {
			fired[k][i] = e.NewCondition()
		}
	}
	running, maxRunning, steps := 0, 0, 0
	step := func() {
		running++
		if running > maxRunning {
			maxRunning = running
		}
		runtime.Gosched() // a concurrently running body would step in here
		steps++
		running--
	}
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			for k := 0; k < rounds; k++ {
				step()
				fired[k][i].Fire()
				step()
				fired[k][(i+procs-1)%procs].Await(p) // woken by a process
				step()
				p.Wait(float64(i%3) * 1e-3) // woken by an event
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 3*procs*rounds {
		t.Fatalf("%d steps ran, want %d", steps, 3*procs*rounds)
	}
	if maxRunning != 1 {
		t.Errorf("up to %d process bodies ran at once, want 1", maxRunning)
	}
}

// A run that stops on a deadlock or a failed process releases the
// processes still parked: their bodies unwind and their coroutines exit
// instead of staying suspended forever.
func TestStoppedRunReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		fail bool
	}{{"deadlock", false}, {"failure", true}} {
		e := NewEngine()
		never := e.NewCondition()
		var deferred atomic.Int64
		for i := 0; i < 20; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
				defer deferred.Add(1)
				p.Wait(float64(i % 3))
				never.Await(p)
			})
		}
		if tc.fail {
			e.Spawn("boom", func(p *Process) {
				p.Wait(5)
				panic("kaboom")
			})
		}
		err := e.Run()
		if tc.fail == errors.Is(err, ErrDeadlock) || err == nil {
			t.Fatalf("%s: Run = %v", tc.name, err)
		}
		if got := deferred.Load(); got != 20 {
			t.Errorf("%s: %d of 20 process bodies unwound", tc.name, got)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the stopped runs, %d before", n, base)
	}
}

// A panic in an event callback is not a process failure: it propagates
// out of Run, and the parked processes are released first.
func TestEventPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Wait(2) })
	e.At(1, func() { panic("callback") })
	defer func() {
		if r := recover(); r != "callback" {
			t.Errorf("Run panicked with %v, want the callback's panic", r)
		}
	}()
	_ = e.Run()
	t.Error("Run returned")
}
