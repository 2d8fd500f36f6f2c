// Live progress of in-flight advise searches. Depth-12 searches run for
// seconds; GET /v1/advise/progress shows what the search is doing right
// now — nodes covered, incumbent quality, bound gap —
// instead of leaving the operator staring at a silent request. The
// table keeps every in-flight search plus a short ring of recently
// finished ones so a poll just after completion still sees the final
// tallies.

package mapd

import (
	"sort"
	"sync"
	"time"

	"repro/internal/advisor"
)

// defaultProgressRecent is how many finished searches the progress
// endpoint keeps for post-hoc inspection.
const defaultProgressRecent = 16

// SearchProgressEntry is one row of GET /v1/advise/progress: the latest
// snapshot of a bounded order search, in flight or recently finished.
type SearchProgressEntry struct {
	// Key is the canonical cache key of the advise request being searched.
	Key string `json:"key"`
	// Mode is the search phase that produced the latest event (bnb/beam).
	Mode string `json:"mode,omitempty"`
	// ElapsedMs is the search time at the latest event, milliseconds.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Nodes / Evaluated / Covered / Pruned are the tree tallies at the
	// latest event.
	Nodes     int64 `json:"nodes"`
	Evaluated int64 `json:"evaluated"`
	Covered   int64 `json:"covered"`
	Pruned    int64 `json:"pruned"`
	// IncumbentSeconds is the best completion time found so far (0 until
	// the first leaf lands).
	IncumbentSeconds float64 `json:"incumbent_seconds"`
	// BoundGap is (incumbent − root lower bound)/incumbent ∈ [0, 1).
	BoundGap float64 `json:"bound_gap"`
	// Improvements counts incumbent-improvement events so far.
	Improvements int64 `json:"improvements"`
	// Done marks a finished search (the entry lives in the recent ring).
	Done bool `json:"done"`
}

// SearchProgressReport is the GET /v1/advise/progress response body.
type SearchProgressReport struct {
	InFlight []SearchProgressEntry `json:"in_flight"`
	Recent   []SearchProgressEntry `json:"recent"`
}

// progressTable tracks bounded searches for the progress endpoint. All
// methods are safe for concurrent use; updates arrive from search
// worker goroutines while reads come from HTTP handlers.
type progressTable struct {
	mu       sync.Mutex
	seq      int64
	inflight map[*progressHandle]struct{}
	recent   []SearchProgressEntry // most recent first
	keep     int
}

func newProgressTable(keep int) *progressTable {
	if keep <= 0 {
		keep = defaultProgressRecent
	}
	return &progressTable{inflight: map[*progressHandle]struct{}{}, keep: keep}
}

// progressHandle is one search's registration. update matches the
// advisor.SearchOptions.Progress signature; finish moves the entry to
// the recent ring.
type progressHandle struct {
	t     *progressTable
	start time.Time
	seq   int64

	mu    sync.Mutex
	entry SearchProgressEntry
}

// start registers an in-flight search under the request's cache key.
func (t *progressTable) start(key string) *progressHandle {
	h := &progressHandle{t: t, start: time.Now(), entry: SearchProgressEntry{Key: key}}
	t.mu.Lock()
	t.seq++
	h.seq = t.seq
	t.inflight[h] = struct{}{}
	t.mu.Unlock()
	return h
}

// update folds one search progress event into the entry.
func (h *progressHandle) update(p advisor.SearchProgress) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := &h.entry
	e.Mode = p.Mode
	e.ElapsedMs = float64(p.Elapsed) / float64(time.Millisecond)
	e.Nodes = p.Nodes
	e.Evaluated = p.Evaluated
	e.Covered = p.Covered
	e.Pruned = p.Pruned
	if p.Kind == advisor.ProgressIncumbent {
		e.Improvements++
		e.IncumbentSeconds = p.IncumbentTime
		e.BoundGap = p.BoundGap
	}
}

// finish retires the search into the recent ring.
func (h *progressHandle) finish() {
	h.mu.Lock()
	e := h.entry
	h.mu.Unlock()
	e.Done = true
	t := h.t
	t.mu.Lock()
	delete(t.inflight, h)
	t.recent = append([]SearchProgressEntry{e}, t.recent...)
	if len(t.recent) > t.keep {
		t.recent = t.recent[:t.keep]
	}
	t.mu.Unlock()
}

// report snapshots the table: in-flight searches oldest first, then the
// recently finished ring newest first.
func (t *progressTable) report() SearchProgressReport {
	t.mu.Lock()
	handles := make([]*progressHandle, 0, len(t.inflight))
	for h := range t.inflight {
		handles = append(handles, h)
	}
	recent := append([]SearchProgressEntry(nil), t.recent...)
	t.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].seq < handles[j].seq })
	rep := SearchProgressReport{
		InFlight: make([]SearchProgressEntry, 0, len(handles)),
		Recent:   recent,
	}
	for _, h := range handles {
		h.mu.Lock()
		rep.InFlight = append(rep.InFlight, h.entry)
		h.mu.Unlock()
	}
	return rep
}
