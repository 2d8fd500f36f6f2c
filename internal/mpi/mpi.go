// Package mpi is a simulated MPI runtime: ranks are simulation processes
// executing against the virtual clock of a discrete-event engine, one at a
// time on the engine's single thread of control (so the world's state
// needs no lock), point-to-point
// messages are fluid flows over the machine's link graph, and collective
// operations are the real message schedules of the textbook algorithms
// (ring, Bruck, recursive doubling, pairwise exchange, binomial trees), so
// their cost depends on where each rank is mapped — which is exactly the
// effect the paper studies.
//
// A World is created over a netmodel platform with a binding (rank → core).
// Each rank's body receives a *Rank handle giving MPI-style operations:
// Send/Recv/Isend/Irecv/Sendrecv, communicator Split, and the collectives
// used in the paper's evaluation (§4): Alltoall(v), Allreduce, Allgather,
// Bcast, Reduce, Gather, Scatter, Scan, Barrier.
package mpi

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// EagerThreshold is the message size (bytes) up to which sends complete
// immediately (eager protocol); larger messages use a rendezvous handshake
// costing one extra round trip of path latency.
const defaultEagerThreshold = 16 * 1024

// Tracer observes completed operations for profiling (the mpisee-style
// per-communicator accounting of §4.2). The ranks of one world call it one
// at a time; a tracer shared by worlds that run concurrently must be safe
// for concurrent use.
type Tracer interface {
	// Collective records one collective call: the communicator id and size,
	// the operation name, the per-rank payload bytes, the world rank, and
	// the operation's virtual start/end times.
	Collective(commID, commSize int, op string, bytes int64, worldRank int, start, end float64)
}

// P2PTracer observes every point-to-point message (including the ones
// collective algorithms issue), e.g. to build a communication matrix at
// runtime (§2 of the paper). Like Tracer, it is called one rank at a
// time within a world.
type P2PTracer interface {
	P2P(srcWorldRank, dstWorldRank int, bytes int64)
}

// Config tunes the runtime.
type Config struct {
	// EagerThreshold in bytes; 0 uses the default (16 KiB).
	EagerThreshold int64
	// Tracer receives per-operation records; nil disables tracing.
	Tracer Tracer
	// P2P receives every point-to-point message; nil disables it.
	P2P P2PTracer
	// Obs is the unified observability scope: collective spans, per-level
	// byte counters, per-communicator ring costs, and (via Run) engine
	// health metrics. nil disables all of it at the cost of one nil check
	// per operation.
	Obs *obs.Scope
	// Force* pin a collective to one algorithm ("" = size-based decision).
	ForceAlltoall  string
	ForceAllgather string
	ForceAllreduce string
	ForceBcast     string
	// Faults is a deterministic fault plan injected into the world (node
	// crashes, stragglers, link degradation); nil runs a perfect machine.
	Faults *fault.Plan
}

// World is one simulated MPI job.
type World struct {
	engine   *sim.Engine
	platform *netmodel.Platform
	binding  []int
	cfg      Config

	mail    []map[matchKey]*matchQueue // per destination rank
	spare   []*matchQueue              // drained queues, reused by queueFor
	commSeq int
	splits  map[splitKey]*splitState

	// Fault-injection state (see fault.go). faulty is set once by
	// ApplyFaults before the engine runs, so the hot paths skip every
	// fault check on a perfect machine with one predictable branch.
	faulty   bool
	procs    []*sim.Process // by world rank, recorded at Spawn
	lost     []bool         // by world rank
	lostList []int          // world ranks lost, in crash order
	lastLoss fault.RankLostError
	epoch    int       // bumped on every crash; revokes pre-crash communicators
	straggle []float64 // by world rank: slowdown factor, >= 1
	shrinks  map[shrinkKey]*shrinkState

	// Observability state, pre-resolved at NewWorld so the hot paths pay
	// one nil check when disabled and no registry lookups when enabled.
	coresPerNode  int
	obsBytesTotal *obs.Counter   // nil when cfg.Obs is nil
	obsLevelBytes []*obs.Counter // by FirstDiffLevel index; [depth] = same core
	obsMsgs       *obs.Counter

	// sent is the request every eager send returns: it is complete when
	// issued, so it never blocks and one instance serves them all.
	sent *Request
}

// nodeOf returns the Perfetto pid for a core: its outermost-level domain.
func (w *World) nodeOf(core int) int { return core / w.coresPerNode }

type matchKey struct {
	src int
	tag int64
}

// matchQueue holds unmatched sends and unmatched recvs for one (src, tag)
// channel at one destination; at most one of the two lists is non-empty.
type matchQueue struct {
	sends []*sendRec
	recvs []*Request
}

// sendRec is an unmatched send. An eager one has its transfer in flight
// already; a rendezvous one waits for the receiver to start it, and its
// sender and receiver then both complete when the transfer does. Either
// way fin fires when the data movement completes.
type sendRec struct {
	buf     Buf
	srcCore int
	started bool // transfer already launched (eager)
	fin     sim.Condition
}

// Rank is the per-process handle passed to the rank body.
type Rank struct {
	w     *World
	proc  *sim.Process
	id    int
	world *Comm
}

// NewWorld builds a world over the platform with the given rank→core
// binding. Every core index must be valid; ranks may share cores
// (oversubscription) although the experiments never do.
func NewWorld(engine *sim.Engine, platform *netmodel.Platform, binding []int, cfg Config) (*World, error) {
	n := len(binding)
	if n == 0 {
		return nil, fmt.Errorf("mpi: empty binding")
	}
	for r, c := range binding {
		if c < 0 || c >= platform.NumCores() {
			return nil, fmt.Errorf("mpi: rank %d bound to invalid core %d (machine has %d)", r, c, platform.NumCores())
		}
	}
	if cfg.EagerThreshold == 0 {
		cfg.EagerThreshold = defaultEagerThreshold
	}
	w := &World{
		engine:   engine,
		platform: platform,
		binding:  append([]int(nil), binding...),
		cfg:      cfg,
		mail:     make([]map[matchKey]*matchQueue, n),
		splits:   make(map[splitKey]*splitState),
	}
	for i := range w.mail {
		w.mail[i] = make(map[matchKey]*matchQueue)
	}
	w.commSeq = 1 // id 0 is the world communicator
	w.procs = make([]*sim.Process, n)
	w.lost = make([]bool, n)
	w.straggle = make([]float64, n)
	for i := range w.straggle {
		w.straggle[i] = 1
	}
	w.shrinks = make(map[shrinkKey]*shrinkState)
	w.sent = &Request{fin: engine.FiredCondition(), op: "Send"}
	hier := platform.Hierarchy()
	w.coresPerNode = platform.NumCores() / hier.Level(0).Arity
	if sc := cfg.Obs; sc != nil {
		reg := sc.Registry()
		w.obsBytesTotal = reg.Counter("mpi_bytes_total")
		w.obsMsgs = reg.Counter("mpi_messages_total")
		depth := hier.Depth()
		w.obsLevelBytes = make([]*obs.Counter, depth+1)
		for l := 0; l < depth; l++ {
			w.obsLevelBytes[l] = reg.Counter("mpi_level_bytes_total", obs.L("level", hier.Level(l).Name))
		}
		w.obsLevelBytes[depth] = reg.Counter("mpi_level_bytes_total", obs.L("level", "self"))
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.binding) }

// Core returns the core a world rank is bound to.
func (w *World) Core(rank int) int { return w.binding[rank] }

// Spawn launches every rank's body as a simulation process. Call before
// engine.Run.
func (w *World) Spawn(body func(r *Rank)) {
	group := make([]int, w.Size())
	for i := range group {
		group[i] = i
	}
	for i := 0; i < w.Size(); i++ {
		rank := i
		name := fmt.Sprintf("rank%d", rank)
		if sc := w.cfg.Obs; sc != nil {
			core := w.binding[rank]
			node := w.nodeOf(core)
			sc.SetProcessName(node, fmt.Sprintf("node%d", node))
			sc.SetThreadName(node, rank, fmt.Sprintf("rank%d@core%d", rank, core))
			sc.BindProc(name, node, rank)
		}
		w.procs[rank] = w.engine.Spawn(name, func(p *sim.Process) {
			r := &Rank{w: w, proc: p, id: rank}
			r.world = &Comm{w: w, id: 0, group: group, rank: rank}
			body(r)
		})
	}
}

// Run builds a world on a fresh engine, spawns nprocs ranks with the given
// binding and body, and runs the simulation to completion, returning the
// final virtual time.
func Run(spec netmodel.Spec, binding []int, cfg Config, body func(r *Rank)) (float64, error) {
	engine := sim.NewEngine()
	platform := netmodel.NewPlatform(engine, spec)
	w, err := NewWorld(engine, platform, binding, cfg)
	if err != nil {
		return 0, err
	}
	var eo *obs.EngineObserver
	if cfg.Obs != nil {
		eo = obs.NewEngineObserver(cfg.Obs)
		engine.SetObserver(eo)
	}
	w.Spawn(body)
	if err := w.ApplyFaults(cfg.Faults); err != nil {
		return 0, err
	}
	runErr := engine.Run()
	eo.Finish()
	if runErr != nil {
		return 0, runErr
	}
	return engine.Now(), nil
}

// ID returns the world rank.
func (r *Rank) ID() int { return r.id }

// World returns the communicator containing every rank.
func (r *Rank) World() *Comm { return r.world }

// Now returns the rank's current virtual time in seconds.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Core returns the core this rank is bound to.
func (r *Rank) Core() int { return r.w.binding[r.id] }

// Wait advances the rank's virtual time by d seconds (pure local work).
// A straggling rank's local work is stretched by its slowdown factor.
func (r *Rank) Wait(d float64) {
	if r.w.faulty {
		d *= r.w.straggle[r.id]
	}
	r.proc.Wait(d)
}

// Compute models a roofline kernel on the rank's core: flops of arithmetic
// and bytes of memory traffic through the core's shared memory domains.
// A straggling rank's kernel does the same work at 1/factor speed.
func (r *Rank) Compute(flops, bytes float64) {
	if r.w.faulty {
		f := r.w.straggle[r.id]
		flops *= f
		bytes *= f
	}
	r.w.platform.Compute(r.proc, r.w.binding[r.id], flops, bytes)
}

// Request is a pending non-blocking operation. The op/peer/tag fields
// describe it for deadlock diagnostics (static strings and ints only, so
// labelling costs no allocation on the hot path).
type Request struct {
	fin     *sim.Condition
	cond    sim.Condition // fin of a posted receive, held in place
	payload Buf           // the received message; set before fin fires
	op      string
	peer    int // world rank of the remote side
	tag     int64
	chk     bool // fault injection active: Wait must check for a failed condition
}

// Wait blocks the rank until the operation completes; for receives it
// returns the received payload. If the operation failed because the peer
// crashed, Wait aborts the rank with an error wrapping fault.ErrRankLost
// (recoverable on survivors via fault.Catch).
func (req *Request) Wait(r *Rank) Buf {
	req.fin.AwaitOp(r.proc, req.op, req.peer, req.tag)
	if req.chk {
		if err := req.fin.Err(); err != nil {
			panic(sim.Abort{Err: err})
		}
	}
	return req.payload
}

// WaitAll completes all requests.
func WaitAll(r *Rank, reqs ...*Request) {
	for _, q := range reqs {
		q.Wait(r)
	}
}

// queueFor returns (creating if needed) the match queue at destination dst
// for messages from src with the tag.
func (w *World) queueFor(dst, src int, tag int64) *matchQueue {
	k := matchKey{src: src, tag: tag}
	q := w.mail[dst][k]
	if q == nil {
		if n := len(w.spare); n > 0 {
			q = w.spare[n-1]
			w.spare = w.spare[:n-1]
		} else {
			q = &matchQueue{}
		}
		w.mail[dst][k] = q
	}
	return q
}

// dropIfDrained removes the match queue of dst for (src, tag) from mail
// once it holds no pending operation, so mail keeps only channels with
// unmatched sends or receives instead of every channel ever used. The
// queue goes to the spare list with its backing arrays, so the number of
// queues ever allocated is the peak number pending at once.
func (w *World) dropIfDrained(dst, src int, tag int64, q *matchQueue) {
	if len(q.sends) == 0 && len(q.recvs) == 0 {
		delete(w.mail[dst], matchKey{src: src, tag: tag})
		w.spare = append(w.spare, q)
	}
}

// popFront removes the first element of a match list in place, keeping
// the backing array for the queue's next use.
func popFront[T any](s []T) (T, []T) {
	x := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	return x, s[:n]
}

// isend posts a message from world rank src to world rank dst.
func (w *World) isend(src, dst int, tag int64, buf Buf) *Request {
	buf.check()
	if w.cfg.P2P != nil {
		w.cfg.P2P.P2P(src, dst, buf.Bytes)
	}
	srcCore, dstCore := w.binding[src], w.binding[dst]
	if w.obsBytesTotal != nil {
		w.obsBytesTotal.AddInt(buf.Bytes)
		w.obsMsgs.AddInt(1)
		w.obsLevelBytes[w.platform.Hierarchy().FirstDiffLevel(srcCore, dstCore)].AddInt(buf.Bytes)
		if w.cfg.Obs.Options().P2PEvents {
			w.cfg.Obs.Instant(w.nodeOf(srcCore), src, "p2p", "p2p", w.engine.Now(),
				obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "bytes", Val: buf.Bytes})
		}
	}
	eager := buf.Bytes <= w.cfg.EagerThreshold

	stretch := w.stretch(src, dst)
	q := w.queueFor(dst, src, tag)
	if len(q.recvs) > 0 {
		// A receive is already posted: start the transfer now. Rendezvous
		// pays no extra handshake because the receiver was ready.
		var rv *Request
		rv, q.recvs = popFront(q.recvs)
		w.dropIfDrained(dst, src, tag, q)
		// The transfer fires the receive's own condition, and the receiver
		// reads the payload only once it has fired.
		rv.payload = buf.Clone()
		w.platform.StartTransferStretched(rv.fin, srcCore, dstCore, float64(buf.Bytes), 0, stretch)
		if eager {
			// Eager sends complete locally right away.
			return w.sent
		}
		return &Request{fin: rv.fin, op: "Send", peer: dst, tag: tag, chk: w.faulty}
	}
	// No receive yet: enqueue.
	rec := &sendRec{buf: buf.Clone(), srcCore: srcCore}
	if eager {
		// Launch the transfer immediately; the sender is done already.
		rec.started = true
		w.platform.StartTransferStretched(&rec.fin, srcCore, dstCore, float64(buf.Bytes), 0, stretch)
		q.sends = append(q.sends, rec)
		return w.sent
	}
	q.sends = append(q.sends, rec)
	return &Request{fin: &rec.fin, op: "Send", peer: dst, tag: tag, chk: w.faulty}
}

// irecv posts a receive at world rank dst for a message from src.
func (w *World) irecv(dst, src int, tag int64) *Request {
	req := &Request{op: "Recv", peer: src, tag: tag, chk: w.faulty}

	stretch := w.stretch(src, dst)
	q := w.queueFor(dst, src, tag)
	if len(q.sends) > 0 {
		var rec *sendRec
		rec, q.sends = popFront(q.sends)
		w.dropIfDrained(dst, src, tag, q)
		req.payload = rec.buf
		// An eager message is in flight (or arrived) already, and its
		// transfer completes the receive. A rendezvous one is triggered by
		// the receiver, which pays the handshake round trip on top of the
		// path latency; sender and receiver complete together with it.
		req.fin = &rec.fin
		if !rec.started {
			w.platform.StartTransferStretched(req.fin, rec.srcCore, w.binding[dst], float64(rec.buf.Bytes), 1, stretch)
		}
		return req
	}
	req.fin = &req.cond
	q.recvs = append(q.recvs, req)
	return req
}
