// Branch-and-bound search over digit-order prefixes, with a bounded-width
// beam fallback. The exact search (Rank) enumerates all k! orders; this
// engine walks the prefix tree instead and uses two structural facts from
// §3.3 (internal/metrics/prefix.go):
//
//  1. A prefix whose radix product covers the communicator size fully
//     determines the first subcommunicator — placement and internal
//     ordering. When only the first communicator runs (!Simultaneous),
//     every completion of such a prefix therefore has the *same*
//     predicted cost: the whole (k−t)!-order subtree collapses into one
//     leaf evaluation, composed with the PR 4 equivalence-class memo so
//     distinct evaluations ≈ distinct placement signatures.
//
//  2. For any prefix, the deepest crossing level any completion can
//     achieve is closed-form (metrics.BestCompletionCrossLevel), which
//     yields an admissible lower bound on the cost of every completion:
//     rounds × the cheapest latency at or outside that level, plus — for
//     covered prefixes under Simultaneous — the first communicator's
//     exact traffic term, which only grows as the remaining world
//     communicators tile in.
//
// Subtrees whose lower bound exceeds the current top-T incumbent
// threshold are pruned with proof, so a completed branch-and-bound run
// returns exactly the orders Rank would (ModeBnB, gap 0). When the node
// budget is exhausted the engine degrades to a level-synchronous beam of
// bounded width and reports an optimality gap derived from the smallest
// lower bound it discarded (ModeBeam).

package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/perm"
)

// Bounded-search modes, labeled on the advisor metrics next to
// ModeExact/ModePruned/ModeFallback.
const (
	// ModeBnB: the branch-and-bound completed within its node budget; the
	// returned best orders are provably identical to the exhaustive
	// ranking (OptimalityGap 0).
	ModeBnB = "bnb"
	// ModeBeam: the node budget ran out and the bounded-width beam
	// answered instead, with a reported OptimalityGap.
	ModeBeam = "beam"
)

// Bounded-search defaults. The node budget is sized so a depth-10
// single-communicator search (≈190k prefix nodes) completes exactly,
// while depth 12 (≈2.9M nodes) degrades to the beam.
const (
	DefaultNodeBudget = 400_000
	DefaultBeamWidth  = 32
)

// Progress event kinds.
const (
	// ProgressIncumbent: the best evaluated completion time strictly
	// improved. Within one search phase (mode) the IncumbentTime sequence
	// of these events is strictly decreasing.
	ProgressIncumbent = "incumbent"
	// ProgressCoverage: a periodic heartbeat every ProgressEvery visited
	// nodes, carrying the covered/pruned/evaluated tallies.
	ProgressCoverage = "coverage"
)

// DefaultProgressEvery is the node interval between coverage events.
const DefaultProgressEvery = 10_000

// SearchProgress is one live progress event of a bounded search,
// delivered synchronously from the search goroutine.
type SearchProgress struct {
	// Kind is ProgressIncumbent or ProgressCoverage.
	Kind string
	// Mode is the phase emitting the event (ModeBnB, or ModeBeam after
	// the node budget forced the fallback).
	Mode string
	// Elapsed is wall time since the search started.
	Elapsed time.Duration
	// Nodes/Evaluated/Covered/Pruned mirror the SearchResult tallies at
	// the instant of the event.
	Nodes, Evaluated, Covered, Pruned int64
	// IncumbentTime is the best evaluated completion time so far in
	// seconds (0 before the first leaf evaluation of the phase).
	IncumbentTime float64
	// BoundGap bounds the remaining optimality headroom against the root
	// admissible lower bound: the true optimum is ≥ IncumbentTime ×
	// (1 − BoundGap). It shrinks as incumbents improve.
	BoundGap float64
}

// SearchOptions bounds SearchOrders.
type SearchOptions struct {
	// NodeBudget caps the prefix-tree nodes the branch-and-bound may
	// visit before degrading to the beam; 0 means DefaultNodeBudget.
	NodeBudget int64
	// BeamWidth is the fallback beam's frontier width; 0 means
	// DefaultBeamWidth.
	BeamWidth int
	// Top is how many best orders the result carries; 0 means 1.
	Top int
	// Registry and OnStats are the same observability hooks as
	// RankOptions, labeled/reported with ModeBnB or ModeBeam.
	Registry *obs.Registry
	OnStats  func(RankStats)
	// Progress, when set, receives live search progress: one event per
	// strict incumbent improvement plus a coverage heartbeat every
	// ProgressEvery nodes. Events also feed the advisor_search_* gauges
	// (when Registry is set) and the advisor.search span's
	// search_progress instant-event stream.
	Progress func(SearchProgress)
	// ProgressEvery overrides the coverage heartbeat interval in visited
	// nodes; 0 means DefaultProgressEvery.
	ProgressEvery int64
}

// SearchResult is the outcome of one bounded search.
type SearchResult struct {
	// Best holds the top orders, ranked exactly as Rank ranks (bandwidth
	// descending, lexicographic tie-break). In ModeBnB it is provably
	// identical to the head of the exhaustive ranking.
	Best []Prediction
	// Worst is the worst *evaluated* order: the lexicographically
	// greatest member of the lowest-bandwidth evaluated class, which is
	// Rank's last entry whenever nothing was pruned (the true global
	// worst can otherwise live in a pruned subtree).
	Worst Prediction
	// Mode is ModeBnB or ModeBeam.
	Mode string
	// Evaluated counts model evaluations actually performed (distinct
	// placement signatures predicted) — the honest "orders evaluated".
	Evaluated int64
	// Covered counts full orders represented by evaluated leaves; Pruned
	// counts orders discarded with a bound proof. Covered+Pruned equals
	// k! exactly when Mode is ModeBnB.
	Covered, Pruned int64
	// Nodes is the number of prefix-tree nodes visited (both phases).
	Nodes int64
	// OptimalityGap g guarantees the true optimum time is at least
	// Best[0].Time × (1−g). Zero in ModeBnB; in [0, 1) in ModeBeam.
	OptimalityGap float64
}

// errNodeBudget aborts the branch-and-bound descent when the node budget
// is exhausted; SearchOrders catches it and runs the beam.
var errNodeBudget = errors.New("advisor: search node budget exhausted")

// SearchOrders runs the bounded deep-hierarchy search for the scenario
// and returns the top opts.Top orders. It is intentionally sequential:
// the incumbent set makes pruning inherently stateful, and even the
// depth-12 beam path is cheap enough that determinism (and triviality
// under the race detector) wins over parallel speedup.
func SearchOrders(ctx context.Context, sc Scenario, opts SearchOptions) (*SearchResult, error) {
	start := time.Now()
	budget := opts.NodeBudget
	if budget <= 0 {
		budget = DefaultNodeBudget
	}
	width := opts.BeamWidth
	if width <= 0 {
		width = DefaultBeamWidth
	}
	top := opts.Top
	if top <= 0 {
		top = 1
	}
	k := sc.Hierarchy.Depth()
	p := sc.CommSize
	if p <= 0 || sc.Hierarchy.Size()%p != 0 {
		return nil, fmt.Errorf("advisor: communicator size %d does not divide %d", p, sc.Hierarchy.Size())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ctx, span := rt.StartSpan(ctx, "advisor.search")
	span.SetAttr("depth", int64(k))
	defer span.End()

	e := newBnbEngine(ctx, sc, top, budget)
	e.start = start
	if opts.ProgressEvery > 0 {
		e.every = opts.ProgressEvery
	}
	if opts.Progress != nil || opts.Registry != nil || span != nil {
		e.progress = progressSink(span, opts)
	}
	mode := ModeBnB
	gap := 0.0
	err := e.dfs(e.prefix, 0, 1)
	if errors.Is(err, errNodeBudget) {
		// Budget spent: discard the partial branch-and-bound incumbents
		// (their pruning accounting is no longer meaningful) and answer
		// from the beam. The class memo is kept — re-encountered
		// signatures stay free. The incumbent progress stream restarts
		// with the phase: each mode's event sequence is monotone on its
		// own.
		mode = ModeBeam
		e.inc.leaves = e.inc.leaves[:0]
		e.covered, e.pruned = 0, 0
		e.mode, e.best = ModeBeam, math.Inf(1)
		gap, err = e.beam(width)
	}
	if err != nil {
		span.SetError()
		return nil, err
	}
	if len(e.inc.leaves) == 0 {
		span.SetError()
		return nil, fmt.Errorf("advisor: search found no orders for depth %d", k)
	}

	res := &SearchResult{
		Best:          e.results(top),
		Worst:         e.worst,
		Mode:          mode,
		Evaluated:     e.evals,
		Covered:       e.covered,
		Pruned:        e.pruned,
		Nodes:         e.nodes,
		OptimalityGap: gap,
	}
	span.SetAttr("nodes", e.nodes)
	span.SetAttr("evaluated", e.evals)

	elapsed := time.Since(start)
	if opts.Registry != nil {
		ml := obs.L("mode", mode)
		opts.Registry.Counter("advisor_class_misses_total", ml).AddInt(e.evals)
		if hits := e.covered - e.evals; hits > 0 {
			opts.Registry.Counter("advisor_class_hits_total", ml).AddInt(hits)
		}
		opts.Registry.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).
			Observe(elapsed.Seconds())
	}
	if opts.OnStats != nil {
		opts.OnStats(RankStats{
			Mode:    mode,
			Orders:  int(e.covered + e.pruned),
			Classes: int(e.evals),
			Elapsed: elapsed,
		})
	}
	return res, nil
}

// progressSink fans one progress event out to the three consumers: the
// advisor_search_* gauges (per-mode series, so each stays monotone within
// a run), the advisor.search span's search_progress instant-event stream,
// and the caller's sink.
func progressSink(span *rt.Span, opts SearchOptions) func(SearchProgress) {
	return func(p SearchProgress) {
		if opts.Registry != nil {
			ml := obs.L("mode", p.Mode)
			opts.Registry.Gauge("advisor_search_nodes", ml).Set(float64(p.Nodes))
			opts.Registry.Gauge("advisor_search_incumbent_seconds", ml).Set(p.IncumbentTime)
			opts.Registry.Gauge("advisor_search_bound_gap", ml).Set(p.BoundGap)
			if p.Kind == ProgressIncumbent {
				opts.Registry.Counter("advisor_search_incumbent_improvements_total", ml).Add(1)
			}
		}
		span.Event("search_progress",
			obs.Arg{Key: "improvement", Val: b2i64(p.Kind == ProgressIncumbent)},
			obs.Arg{Key: "nodes", Val: p.Nodes},
			obs.Arg{Key: "covered", Val: p.Covered},
			obs.Arg{Key: "pruned", Val: p.Pruned},
			obs.Arg{Key: "incumbent_us", Val: int64(p.IncumbentTime * 1e6)},
			obs.Arg{Key: "gap_bp", Val: int64(p.BoundGap * 1e4)},
		)
		if opts.Progress != nil {
			opts.Progress(p)
		}
	}
}

func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// classLeaf is one evaluated equivalence node of the prefix tree: a
// covering prefix (or, under Simultaneous, a full order) together with
// the shared prediction of all (k−t)! completions it represents. order is
// the canonical completion — the prefix followed by the remaining levels
// ascending — which is the lexicographically smallest member.
type classLeaf struct {
	order []int
	split int // prefix length; order[split:] is the ascending remainder
	pr    Prediction
	size  int64 // (k-split)! orders represented
}

// incumbents keeps the running best class leaves, ordered exactly like
// the final ranking (bandwidth descending, canonical order as tie-break),
// trimmed to what the top-T answer can still need.
type incumbents struct {
	top    int
	leaves []classLeaf
}

func (in *incumbents) insert(l classLeaf) {
	i := sort.Search(len(in.leaves), func(i int) bool {
		if in.leaves[i].pr.Bandwidth != l.pr.Bandwidth {
			return in.leaves[i].pr.Bandwidth < l.pr.Bandwidth
		}
		return !perm.Less(in.leaves[i].order, l.order)
	})
	in.leaves = append(in.leaves, classLeaf{})
	copy(in.leaves[i+1:], in.leaves[i:])
	in.leaves[i] = l
	in.trim()
}

// trim drops leaves that can no longer reach the top-T answer: everything
// past the class where the cumulative order count reaches top, except
// that within the cutoff bandwidth-tie group up to top classes are kept —
// only the lexicographically smallest canonicals of a tie group can
// contribute to the final merge.
func (in *incumbents) trim() {
	var cum int64
	for i := range in.leaves {
		cum += in.leaves[i].size
		if cum < int64(in.top) {
			continue
		}
		bw := in.leaves[i].pr.Bandwidth
		g := i
		for g > 0 && in.leaves[g-1].pr.Bandwidth == bw {
			g--
		}
		end := i + 1
		for end < len(in.leaves) && end < g+in.top && in.leaves[end].pr.Bandwidth == bw {
			end++
		}
		in.leaves = in.leaves[:end]
		return
	}
}

// threshold returns the pruning cutoff: the worst Time among retained
// leaves once they account for at least top orders. Subtrees whose lower
// bound strictly exceeds it cannot affect the answer (ties are kept for
// the lexicographic merge).
func (in *incumbents) threshold() (float64, bool) {
	var cum int64
	for i := range in.leaves {
		cum += in.leaves[i].size
	}
	if cum < int64(in.top) {
		return 0, false
	}
	thr := 0.0
	for i := range in.leaves {
		if in.leaves[i].pr.Time > thr {
			thr = in.leaves[i].pr.Time
		}
	}
	return thr, true
}

type bnbEngine struct {
	ctx context.Context
	sc  Scenario
	ar  []int
	k   int
	p   int

	sigOpts metrics.SignatureOpts
	fcSc    Scenario // first-communicator scenario (Simultaneous off)
	fcOpts  metrics.SignatureOpts

	// latFloor[v] = rounds × the cheapest latency at any level in [0, v]
	// (levels past the spec cost 0, mirroring Predict). Admissible
	// because every completion crosses at level ≤ v for
	// v = BestCompletionCrossLevel.
	latFloor []float64

	memo   map[string]Prediction // leaf evaluations by placement signature
	fcMemo map[string]Prediction // first-comm bound evaluations (Simultaneous only)

	inc       incumbents
	worst     Prediction
	haveWorst bool

	prefix []int // shared DFS scratch, cap k

	nodes, evals, covered, pruned int64
	budget                        int64

	// Progress stream state: the sink (nil when nobody listens), the
	// coverage heartbeat interval, the wall start, the phase label, the
	// best incumbent time seen this phase, and the root admissible lower
	// bound the gap is measured against.
	progress func(SearchProgress)
	every    int64
	start    time.Time
	mode     string
	best     float64
	rootLB   float64
}

func newBnbEngine(ctx context.Context, sc Scenario, top int, budget int64) *bnbEngine {
	h := sc.Hierarchy
	k := h.Depth()
	rounds := float64(sc.CommSize - 1)
	if sc.Coll == Allreduce {
		rounds = 2 * float64(sc.CommSize-1)
	}
	latFloor := make([]float64, k+1)
	minLat := math.Inf(1)
	for v := 0; v <= k; v++ {
		if v < len(sc.Spec.Levels) {
			if l := sc.Spec.Levels[v].Latency; l < minLat {
				minLat = l
			}
		} else {
			minLat = 0 // Predict charges no latency past the spec'd levels
		}
		latFloor[v] = rounds * minLat
	}
	fcSc := sc
	fcSc.Simultaneous = false
	return &bnbEngine{
		ctx:      ctx,
		sc:       sc,
		ar:       h.Arities(),
		k:        k,
		p:        sc.CommSize,
		sigOpts:  metrics.SignatureOpts{Ring: sc.Coll != Alltoall, World: sc.Simultaneous},
		fcSc:     fcSc,
		fcOpts:   metrics.SignatureOpts{Ring: sc.Coll != Alltoall, World: false},
		latFloor: latFloor,
		memo:     make(map[string]Prediction),
		fcMemo:   make(map[string]Prediction),
		inc:      incumbents{top: top},
		prefix:   make([]int, 0, k),
		budget:   budget,
		every:    DefaultProgressEvery,
		start:    time.Now(),
		mode:     ModeBnB,
		best:     math.Inf(1),
		rootLB:   latFloor[metrics.BestCompletionCrossLevel(h.Arities(), nil, sc.CommSize)],
	}
}

// emit delivers one progress event to the configured sink.
func (e *bnbEngine) emit(kind string) {
	if e.progress == nil {
		return
	}
	p := SearchProgress{
		Kind:      kind,
		Mode:      e.mode,
		Elapsed:   time.Since(e.start),
		Nodes:     e.nodes,
		Evaluated: e.evals,
		Covered:   e.covered,
		Pruned:    e.pruned,
	}
	if !math.IsInf(e.best, 1) {
		p.IncumbentTime = e.best
		if e.best > 0 && e.rootLB < e.best {
			p.BoundGap = (e.best - e.rootLB) / e.best
		}
	}
	e.progress(p)
}

// dfs walks the prefix tree depth-first, children in ascending level
// order so leaves arrive in canonical (lexicographic) order.
func (e *bnbEngine) dfs(prefix []int, used uint32, prod int) error {
	e.nodes++
	if e.nodes&1023 == 0 {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if e.nodes%e.every == 0 {
		e.emit(ProgressCoverage)
	}
	if e.nodes > e.budget {
		return errNodeBudget
	}
	t := len(prefix)
	covered := prod >= e.p
	// A covering prefix is a leaf unless every world communicator runs at
	// once — the world tiling needs the full order.
	if (covered && !e.sc.Simultaneous) || t == e.k {
		return e.evalLeaf(prefix)
	}
	if t > 0 {
		lb, err := e.bound(prefix, covered)
		if err != nil {
			return err
		}
		if thr, ok := e.inc.threshold(); ok && lb > thr {
			e.pruned += perm.Factorial(e.k - t)
			return nil
		}
	}
	for l := 0; l < e.k; l++ {
		if used&(1<<uint(l)) != 0 {
			continue
		}
		if err := e.dfs(append(prefix, l), used|1<<uint(l), prod*e.ar[l]); err != nil {
			return err
		}
	}
	return nil
}

// bound returns an admissible lower bound on the predicted time of every
// completion of the prefix.
func (e *bnbEngine) bound(prefix []int, covered bool) (float64, error) {
	cross := metrics.BestCompletionCrossLevel(e.ar, prefix, e.p)
	lb := e.latFloor[cross]
	if covered && e.sc.Simultaneous {
		// The first communicator is fully determined; its traffic term is
		// exact and can only grow as the remaining communicators tile in.
		pr, err := e.firstCommPredict(prefix)
		if err != nil {
			return 0, err
		}
		lb = pr.Time - pr.Latency + e.latFloor[cross]
	}
	return lb, nil
}

// firstCommPredict evaluates the (completion-invariant) single-communicator
// prediction for a covering prefix, memoized by placement signature.
func (e *bnbEngine) firstCommPredict(prefix []int) (Prediction, error) {
	sigma := canonicalCompletion(e.k, prefix)
	sig, err := metrics.OrderSignature(e.sc.Hierarchy, sigma, e.p, e.fcOpts)
	if err != nil {
		return Prediction{}, err
	}
	key := sig.Key()
	if pr, ok := e.fcMemo[key]; ok {
		return pr, nil
	}
	if err := e.ctx.Err(); err != nil {
		return Prediction{}, err
	}
	pr, err := Predict(e.fcSc, sigma)
	if err != nil {
		return Prediction{}, err
	}
	pr.Order = nil
	e.fcMemo[key] = pr
	return pr, nil
}

// evalLeaf predicts the (shared) cost of all completions of a leaf
// prefix, memoized by placement signature, and feeds the incumbents and
// the worst-evaluated tracker.
func (e *bnbEngine) evalLeaf(prefix []int) error {
	sigma := canonicalCompletion(e.k, prefix)
	sig, err := metrics.OrderSignature(e.sc.Hierarchy, sigma, e.p, e.sigOpts)
	if err != nil {
		return err
	}
	key := sig.Key()
	pr, ok := e.memo[key]
	if !ok {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		pr, err = Predict(e.sc, sigma)
		if err != nil {
			return err
		}
		e.evals++
		pr.Order = nil
		e.memo[key] = pr
	}
	split := len(prefix)
	size := perm.Factorial(e.k - split)
	e.covered += size
	e.inc.insert(classLeaf{order: sigma, split: split, pr: pr, size: size})
	if best := e.inc.leaves[0].pr.Time; best < e.best {
		e.best = best
		e.emit(ProgressIncumbent)
	}
	// The class's lexicographically greatest member (prefix + descending
	// rest) stands for it: Rank ranks equal-bandwidth orders
	// lexicographically, so its last entry is the greatest member of the
	// lowest-bandwidth classes. Leaves arrive in canonical order in the
	// DFS but in bound order in the beam, so the tie is broken explicitly.
	if !e.haveWorst || pr.Bandwidth <= e.worst.Bandwidth {
		greatest := append(append([]int(nil), sigma[:split]...), reverseInts(sigma[split:])...)
		if !e.haveWorst || pr.Bandwidth < e.worst.Bandwidth || perm.Less(e.worst.Order, greatest) {
			e.worst = pr
			e.worst.Order = greatest
			e.haveWorst = true
		}
	}
	return nil
}

// beam is the budget-exhausted fallback: a level-synchronous search that
// keeps the width most promising prefixes per depth (ranked by lower
// bound, deterministic lexicographic tie-break) and folds every dropped
// candidate's bound into the optimality gap.
func (e *bnbEngine) beam(width int) (float64, error) {
	type cand struct {
		prefix []int
		used   uint32
		prod   int
		lb     float64
	}
	frontier := []cand{{prefix: []int{}, prod: 1}}
	globalLB := math.Inf(1)
	for len(frontier) > 0 {
		var next []cand
		for _, c := range frontier {
			for l := 0; l < e.k; l++ {
				if c.used&(1<<uint(l)) != 0 {
					continue
				}
				e.nodes++
				if e.nodes&1023 == 0 {
					if err := e.ctx.Err(); err != nil {
						return 0, err
					}
				}
				if e.nodes%e.every == 0 {
					e.emit(ProgressCoverage)
				}
				child := append(append(make([]int, 0, e.k), c.prefix...), l)
				prod := c.prod * e.ar[l]
				covered := prod >= e.p
				if (covered && !e.sc.Simultaneous) || len(child) == e.k {
					if err := e.evalLeaf(child); err != nil {
						return 0, err
					}
					continue
				}
				lb, err := e.bound(child, covered)
				if err != nil {
					return 0, err
				}
				next = append(next, cand{prefix: child, used: c.used | 1<<uint(l), prod: prod, lb: lb})
			}
		}
		sort.Slice(next, func(i, j int) bool {
			if next[i].lb != next[j].lb {
				return next[i].lb < next[j].lb
			}
			return perm.Less(next[i].prefix, next[j].prefix)
		})
		if len(next) > width {
			for _, d := range next[width:] {
				if d.lb < globalLB {
					globalLB = d.lb
				}
			}
			next = next[:width]
		}
		frontier = next
	}
	if len(e.inc.leaves) == 0 {
		return 0, fmt.Errorf("advisor: beam search found no orders")
	}
	best := e.inc.leaves[0].pr.Time
	if globalLB >= best {
		// Nothing promising was ever dropped: the beam was exhaustive.
		return 0, nil
	}
	return (best - globalLB) / best, nil
}

// results expands the retained class leaves into the final top-N full
// orders. Within a bandwidth-tie group the members of several classes
// interleave lexicographically, so each class streams its completions
// (next-permutation over the suffix) through a k-way merge.
func (e *bnbEngine) results(topN int) []Prediction {
	type stream struct {
		cur     []int
		split   int
		pr      Prediction
		emitted int64
		size    int64
	}
	out := make([]Prediction, 0, topN)
	leaves := e.inc.leaves
	for i := 0; i < len(leaves) && len(out) < topN; {
		j := i
		for j < len(leaves) && leaves[j].pr.Bandwidth == leaves[i].pr.Bandwidth {
			j++
		}
		streams := make([]*stream, 0, j-i)
		for _, l := range leaves[i:j] {
			streams = append(streams, &stream{
				cur:   append([]int(nil), l.order...),
				split: l.split,
				pr:    l.pr,
				size:  l.size,
			})
		}
		for len(streams) > 0 && len(out) < topN {
			m := 0
			for s := 1; s < len(streams); s++ {
				if perm.Less(streams[s].cur, streams[m].cur) {
					m = s
				}
			}
			st := streams[m]
			pr := st.pr
			pr.Order = append([]int(nil), st.cur...)
			out = append(out, pr)
			st.emitted++
			if st.emitted >= st.size || !nextPermutation(st.cur[st.split:]) {
				streams = append(streams[:m], streams[m+1:]...)
			}
		}
		i = j
	}
	return out
}

// canonicalCompletion returns the lexicographically smallest order with
// the given prefix: the prefix followed by the remaining levels ascending.
func canonicalCompletion(k int, prefix []int) []int {
	sigma := make([]int, 0, k)
	sigma = append(sigma, prefix...)
	var used uint32
	for _, l := range prefix {
		used |= 1 << uint(l)
	}
	for l := 0; l < k; l++ {
		if used&(1<<uint(l)) == 0 {
			sigma = append(sigma, l)
		}
	}
	return sigma
}

// nextPermutation advances s to its next lexicographic permutation in
// place, returning false when s was already the last one.
func nextPermutation(s []int) bool {
	i := len(s) - 2
	for i >= 0 && s[i] >= s[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(s) - 1
	for s[j] <= s[i] {
		j--
	}
	s[i], s[j] = s[j], s[i]
	for a, b := i+1, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
	return true
}

func reverseInts(s []int) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
