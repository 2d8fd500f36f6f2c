//go:build go1.23

// Package sim provides the discrete-event simulation engine underneath the
// simulated cluster: a virtual clock, a time-ordered event queue, and
// processes that block on simulated operations and are resumed by the
// scheduler when their operation completes.
//
// Each process body runs as a coroutine (iter.Pull) that Run resumes on
// the goroutine that called it, so exactly one process runs at a time and
// a run — process bodies, event callbacks and observer hooks — is one
// thread of control that needs no locks. Events fire in (time, sequence)
// order, and woken processes resume one after another in a fixed order
// (see Engine), so a run is a pure function of its inputs: the same
// simulation gives bit-identical results on every run and at every
// GOMAXPROCS. The 288-point Hydra ⟦4,2,2,8⟧ paper grid repeats bit for
// bit across two runs at GOMAXPROCS=1 and two at GOMAXPROCS=2. The resume
// order is the one the Go runtime gave the earlier engine, whose woken
// processes ran concurrently, at GOMAXPROCS=1, so the grid stays on that
// engine's single-CPU values: against two such runs it differs on 4 and 7
// of the 288 bandwidths (by at most 0.05% and 0.58%), while those two
// runs differed from each other on 5 (by at most 0.59%). At GOMAXPROCS=2
// the earlier engine's grid differed from this one on 168 points, by up
// to 11.3%.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when processes are blocked but no event is
// pending — e.g. a Recv whose matching Send never arrives.
var ErrDeadlock = errors.New("sim: deadlock — processes blocked with no pending event")

// Abort is the panic value a process body (or a library underneath it, such
// as the MPI runtime) throws to terminate the whole simulation with a typed
// error instead of a generic "process panicked" failure: Run wraps Err with
// %w, so callers can errors.Is/As against it. Recover-and-inspect
// wrappers (fault.Catch) may intercept an Abort before it reaches the
// engine and let the process continue.
type Abort struct{ Err error }

// killedPanic unwinds the body of a process killed by fault injection. It
// is never visible to user code: Spawn's recover treats it as a clean
// process exit.
type killedPanic struct{}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap of events by (at, seq). It holds events
// by value, so scheduling one allocates nothing once the slice has grown.
// (at, seq) is unique per event, so the pop order is the total order of
// the keys whatever the heap layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	*h = q
	return ev
}

func (h eventHeap) peek() *event { return &h[0] }

// Observer receives engine lifecycle callbacks for observability. Every
// method is invoked on the run's one thread of control, between process
// steps: implementations must be fast, must not block, and must not call
// back into the engine. All hooks are nil-checked so a nil observer costs
// one predictable branch.
type Observer interface {
	// OnAdvance is called after every batch of events fired at one virtual
	// instant: the new virtual time, how many events fired at it, and the
	// queue depth remaining afterwards.
	OnAdvance(now float64, fired, queueDepth int)
	// OnBlock is called when a process parks (Wait, WaitUntil, Await).
	OnBlock(proc string, now float64)
	// OnWake is called when a parked process resumes. wallLatency is the
	// wall-clock delay between the waking event and the process actually
	// resuming, which includes the turns of the processes ahead of it in
	// the run queue (0 when unknown, e.g. the initial release at time 0).
	OnWake(proc string, now float64, wallLatency float64)
}

// Engine is a discrete-event simulation. Create with NewEngine, add
// processes with Spawn, then call Run.
//
// One process runs at a time; the coroutines of all others are suspended.
// When the running process blocks or exits, it picks the next runnable
// process, first firing the next instant's events itself while no process
// is runnable, and hands it the turn: it suspends (or finishes) and Run's
// driver loop resumes the next one. A process that the events of its own
// turn woke keeps running with no switch. The resume order is fixed by
// these rules:
//
//   - Making a process runnable (an event or another process waking it)
//     puts it in a "next" slot; whatever was in the slot moves to the
//     back of a FIFO queue.
//   - Run releases the processes in spawn order, each made runnable that
//     way, so the last one spawned runs first and the others follow in
//     spawn order.
//   - Each block or exit makes the engine's own entry runnable the same
//     way, unless it is already queued.
//   - The runner takes the slot before the queue.
//   - The engine entry fires the next instant only when no process is
//     runnable.
//
// The engine entry is always taken right after the block or exit that
// queued it, so it is never held in the queue: its only effect is that
// the process in the slot moves to the back of the queue. The code below
// applies that directly instead of queueing an entry for the engine.
type Engine struct {
	now     float64
	seq     uint64
	events  eventHeap
	procs   []*Process
	stopped bool
	failure error
	obs     Observer

	// The run queue: slot, then queue[head:]. runnable counts them.
	slot     *Process
	queue    []*Process
	head     int
	runnable int

	// handoff is the process Run resumes next, set by the process that
	// blocked or exited; nil once the run is over.
	handoff *Process
	started bool

	result   error // what Run returns, set when the run stops
	panicked any   // a panic raised by an event callback, re-raised by Run

	// deadlockNote is extra context (e.g. which ranks were lost to fault
	// injection) appended to a deadlock report.
	deadlockNote string

	// fired is the shared already-fired condition of FiredCondition.
	fired *Condition
}

// SetDeadlockNote records a note appended to any subsequent deadlock
// report, so that e.g. a hang after fault injection names the lost ranks.
func (e *Engine) SetDeadlockNote(note string) { e.deadlockNote = note }

// SetObserver installs the engine observer. Call before Run; a nil
// observer (the default) disables all callbacks.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// NewEngine returns an empty engine at virtual time 0.
func NewEngine() *Engine {
	return &Engine{fired: &Condition{fired: true}}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at virtual time t (clamped to now). Call it
// before Run, from a process or from another event callback. fn must not
// block.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// Process is a simulated thread of execution. Its methods must only be
// called from the process body.
type Process struct {
	engine *Engine
	name   string
	body   func(p *Process)
	done   bool
	parked bool // true while blocked in block(); guards double-unblock
	killed bool // set by Kill; the process dies at its next wake

	// resume runs the process's coroutine until it suspends or finishes;
	// suspend, called by the process, hands control back to Run.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool

	// blocked-on description for deadlock diagnostics; written by AwaitOp
	// and cleared on wake.
	blockOp   string
	blockPeer int
	blockTag  int64
	wakeWall  time.Time // wall time of unblock, for wake-latency metrics
}

// blockDesc renders what the process is blocked on ("" when unknown).
func (p *Process) blockDesc() string {
	if p.blockOp == "" {
		return ""
	}
	if p.blockPeer < 0 {
		return p.blockOp
	}
	return fmt.Sprintf("%s(peer=%d, tag=%d)", p.blockOp, p.blockPeer, p.blockTag)
}

// Name returns the process name given to Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.engine.now }

// Spawn registers a process whose body starts executing at time 0 when Run
// is called. The body runs as a coroutine of the goroutine that calls Run;
// when it returns, the process is finished. A body that calls
// runtime.Goexit ends the goroutine that called Run. Call before Run.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{engine: e, name: name, body: body}
	e.procs = append(e.procs, p)
	return p
}

// run is the process's coroutine: the body, then its exit.
func (p *Process) run(suspend func(struct{}) bool) {
	p.suspend = suspend
	defer func() { p.engine.exit(p, recover()) }()
	p.body(p)
}

// exit finishes the process whose body returned or panicked with r, and
// hands the turn on.
func (e *Engine) exit(p *Process, r any) {
	switch v := r.(type) {
	case nil:
		// normal return
	case killedPanic:
		// fault-injected crash, or released after the run stopped: a clean
		// exit, not a failure
	case Abort:
		if e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q aborted: %w", p.name, v.Err)
		}
	default:
		if e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}
	p.done = true
	e.handoff = e.yield()
}

// Kill marks the process as crashed. If it is parked on a simulated
// operation it is woken immediately and its body unwinds (via an internal
// panic that Spawn treats as a clean exit); otherwise it dies the next
// time it blocks. Call it from an event callback.
func (p *Process) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.parked {
		p.unblock()
	}
}

// block parks the calling process until an event or another process
// wakes it via unblock, handing the turn to the next runnable process
// meanwhile.
func (p *Process) block() {
	e := p.engine
	if p.killed {
		panic(killedPanic{})
	}
	if e.obs != nil {
		e.obs.OnBlock(p.name, e.now)
	}
	p.parked = true
	// A process woken by the events its own turn fired keeps running. next
	// is never nil here: a run only stops once p is queued to be released.
	if next := e.yield(); next != p {
		e.handoff = next
		p.suspend(struct{}{})
	}
	if p.killed {
		panic(killedPanic{})
	}
	if e.obs != nil {
		var lat float64
		if !p.wakeWall.IsZero() {
			lat = time.Since(p.wakeWall).Seconds()
			p.wakeWall = time.Time{}
		}
		e.obs.OnWake(p.name, e.now, lat)
	}
}

// unblock makes the process runnable at the current virtual time: it takes
// the run queue's slot. Idempotent: a process already woken (e.g. by Kill
// followed by a condition failure) is not woken twice.
func (p *Process) unblock() {
	if !p.parked {
		return
	}
	p.parked = false
	e := p.engine
	if e.obs != nil {
		p.wakeWall = time.Now()
	}
	e.vacateSlot()
	e.slot = p
	e.runnable++
}

// vacateSlot moves the process in the run queue's slot, if any, to the
// back of the queue.
func (e *Engine) vacateSlot() {
	if e.slot != nil {
		e.queue = append(e.queue, e.slot)
		e.slot = nil
	}
}

// yield is called when the running process has blocked or exited, and
// returns the process to resume next (see next).
func (e *Engine) yield() *Process {
	e.vacateSlot() // as the engine's entry taking the slot would
	return e.next()
}

// next returns the next process to resume, firing the next instant's
// events while no process is runnable, or nil once the run has stopped
// and every process has exited.
func (e *Engine) next() *Process {
	for e.runnable == 0 {
		switch {
		case e.stopped:
			return nil
		case e.failure != nil || len(e.events) == 0:
			e.stop()
		default:
			e.fire()
		}
	}
	e.runnable--
	if p := e.slot; p != nil {
		e.slot = nil
		return p
	}
	p := e.queue[e.head]
	e.queue[e.head] = nil
	e.head++
	if e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	return p
}

// fire advances to the next event time and fires every event at it. A
// panicking callback stops the run; Run re-raises the panic.
func (e *Engine) fire() {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			e.stop()
		}
	}()
	next := e.events.peek().at
	e.now = next
	fired := 0
	for len(e.events) > 0 && e.events.peek().at == next {
		ev := e.events.pop()
		ev.fn()
		fired++
	}
	if e.obs != nil {
		e.obs.OnAdvance(e.now, fired, len(e.events))
	}
}

// stop ends the run: it records Run's result, then kills every process
// that has not finished and makes it runnable, so that its body unwinds
// through the killed path instead of staying parked.
func (e *Engine) stop() {
	e.stopped = true
	e.result = e.failure
	for _, p := range e.procs {
		if p.done {
			continue
		}
		if e.result == nil {
			e.result = e.deadlockError()
		}
		p.killed = true
		p.unblock()
	}
}

// Wait advances the process's local time by d seconds of pure delay.
func (p *Process) Wait(d float64) {
	if d < 0 {
		panic("sim: negative wait")
	}
	e := p.engine
	e.At(e.now+d, p.unblock)
	p.block()
}

// WaitUntil blocks the process until the given virtual time (no-op if in
// the past).
func (p *Process) WaitUntil(t float64) {
	e := p.engine
	if t <= e.now {
		return
	}
	e.At(t, p.unblock)
	p.block()
}

// Condition is a simulated one-shot condition: processes can block on it
// with Await, callbacks can be chained with OnFire, and it is fired exactly
// once by an event callback or a process. Fire may precede Await; Await
// then returns immediately. Multiple processes may Await the same
// condition. The zero value is a condition that has not fired.
type Condition struct {
	fired     bool
	err       error // non-nil when the condition was failed, not fired
	waiters   []*Process
	callbacks []func()
}

// NewCondition returns a one-shot condition for the engine's processes.
func (e *Engine) NewCondition() *Condition { return &Condition{} }

// FiredCondition returns the engine's one condition that has already
// fired, for operations complete at the moment they are issued. It is
// shared: firing or failing it again is a no-op, Await returns at once
// and Err is nil.
func (e *Engine) FiredCondition() *Condition { return e.fired }

// Fire fires the condition: chained callbacks run immediately, then all
// waiting processes are released at the current virtual time.
func (c *Condition) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	for _, fn := range c.callbacks {
		fn()
	}
	c.callbacks = nil
	for _, w := range c.waiters {
		w.unblock()
	}
	c.waiters = nil
}

// Fail fires the condition with an error: waiters wake as usual but Err
// reports err afterwards, letting the operation that was awaiting the
// condition surface a typed failure (e.g. a lost rank) instead of hanging.
// No-op if the condition already fired or failed.
func (c *Condition) Fail(err error) {
	if c.fired {
		return
	}
	c.err = err
	c.Fire()
}

// Err returns the error the condition was failed with, or nil if it fired
// normally (or has not fired yet).
func (c *Condition) Err() error { return c.err }

// OnFire registers fn to run when the condition fires; if it has already
// fired, fn runs immediately.
func (c *Condition) OnFire(fn func()) {
	if c.fired {
		fn()
		return
	}
	c.callbacks = append(c.callbacks, fn)
}

// Fired reports whether the condition has fired.
func (c *Condition) Fired() bool { return c.fired }

// Await blocks the process until the condition fires.
func (c *Condition) Await(p *Process) {
	c.AwaitOp(p, "", -1, 0)
}

// AwaitOp is Await, additionally recording what the process is about to
// block on — an operation name plus an optional peer rank and tag (pass
// peer < 0 to omit them) — so that a deadlock report can say which
// operation each stuck process was waiting for. The label costs only
// three field writes.
func (c *Condition) AwaitOp(p *Process, op string, peer int, tag int64) {
	if c.fired {
		return
	}
	p.blockOp, p.blockPeer, p.blockTag = op, peer, tag
	c.waiters = append(c.waiters, p)
	p.block()
	p.blockOp = ""
}

// AwaitAll blocks the process until every condition has fired.
func AwaitAll(p *Process, conds ...*Condition) {
	for _, c := range conds {
		c.Await(p)
	}
}

// Run executes the simulation until every spawned process has finished and
// the event queue is empty. It returns ErrDeadlock if processes remain
// blocked with no pending events, or the first process failure (a panic
// or an Abort in a process body) as an error; the other processes are
// then released and exit before Run returns. A panic in an event callback
// propagates out of Run.
//
// Run is the driver loop of the process coroutines: it resumes the
// process each block or exit hands the turn to, until none is left.
func (e *Engine) Run() error {
	if e.started {
		return errors.New("sim: engine already run")
	}
	e.started = true
	for _, p := range e.procs {
		// Every body runs to its end (a stopped run kills and releases the
		// rest), so no coroutine is left to stop.
		p.resume, _ = iter.Pull(p.run)
		p.parked = true
		p.unblock()
	}
	for p := e.next(); p != nil; p, e.handoff = e.handoff, nil {
		p.resume()
	}
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.result
}

// deadlockError builds the ErrDeadlock report: every stuck process with
// the operation it is blocked on (capped at 8, the rest summarized).
func (e *Engine) deadlockError() error {
	var blocked []string
	total := 0
	for _, p := range e.procs {
		if p.done {
			continue
		}
		total++
		if len(blocked) < 8 {
			if d := p.blockDesc(); d != "" {
				blocked = append(blocked, fmt.Sprintf("%s blocked on %s", p.name, d))
			} else {
				blocked = append(blocked, p.name)
			}
		}
	}
	suffix := ""
	if total > len(blocked) {
		suffix = fmt.Sprintf(" … and %d more", total-len(blocked))
	}
	note := ""
	if e.deadlockNote != "" {
		note = "; " + e.deadlockNote
	}
	return fmt.Errorf("%w (%d blocked: %s%s%s)", ErrDeadlock, total, strings.Join(blocked, "; "), suffix, note)
}
