package core

import (
	"simevo/internal/cost"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
)

// SearchSnapshot captures an engine's search position — slot assignment,
// committed net lengths, every objective's incremental state, μ, and the
// best-solution tracking — cheaply enough to take before a speculative
// solution adoption and restore on reject. It deliberately excludes the
// random stream and the iteration counter: speculated iterations consumed
// real budget and real entropy, so a rejected speculation resumes the
// search from the pre-adoption position but does not replay it.
type SearchSnapshot struct {
	slots   []layout.SlotRef  // per cell: slot at snapshot time
	place   *layout.Placement // full clone, the restore fallback path
	objs    []cost.Snapshot   // per pipeline objective, in evaluation order
	lengths []float64         // committed per-net length estimates

	mu    float64
	costs fuzzy.Costs

	best      *layout.Placement // shared pointer: published bests are never mutated
	bestMu    float64
	bestCosts fuzzy.Costs
	bestIter  int

	noImprove  int
	evalsSince int
}

// SnapshotSearch captures the current search position. The engine must
// have evaluated at least once (so the objective pipeline state is
// consistent with the placement).
func (e *Engine) SnapshotSearch() *SearchSnapshot {
	if e.place.Dirty() {
		e.place.Recompute()
	}
	objs := e.pipe.Objectives()
	s := &SearchSnapshot{
		slots:      e.place.SnapshotSlots(nil),
		place:      e.place.Clone(),
		objs:       make([]cost.Snapshot, len(objs)),
		lengths:    append([]float64(nil), e.lengths...),
		mu:         e.mu,
		costs:      e.costs,
		best:       e.best,
		bestMu:     e.bestMu,
		bestCosts:  e.bestCosts,
		bestIter:   e.bestIter,
		noImprove:  e.noImprove,
		evalsSince: e.evalsSince,
	}
	for i, o := range objs {
		s.objs[i] = o.Snapshot()
	}
	return s
}

// RestoreSearch rewinds the engine to a snapshot taken on this engine. The
// placement is patched back through slot deltas (keeping the incremental
// net-cost mirror warm: the coordinate journal records exactly the moved
// cells, so the next evaluation re-estimates only those nets and folds
// values bitwise identical to the snapshot's into the restored objective
// trees) and every objective's state is restored instead of rebuilt —
// the O(snapshot) reject path that replaces the O(n) full rebuild.
func (e *Engine) RestoreSearch(s *SearchSnapshot) {
	restored := false
	if e.inc != nil && !e.incStale && e.inc.Built() {
		e.patchDeltas = e.place.DiffSlotsTo(s.slots, e.patchDeltas[:0])
		if err := e.PatchPlacement(e.patchDeltas); err == nil {
			restored = true
		}
	}
	if !restored {
		// Delta restore unavailable (reference mode, stale incremental
		// state, or mismatched row shapes): fall back to replacing the
		// placement wholesale. Clone so the snapshot stays restorable.
		e.place = s.place.Clone()
		e.place.Recompute()
		e.incStale = true
	}
	for i, o := range e.pipe.Objectives() {
		o.Restore(s.objs[i])
	}
	e.lengths = append(e.lengths[:0], s.lengths...)
	e.mu = s.mu
	e.costs = s.costs
	e.best = s.best
	e.bestMu = s.bestMu
	e.bestCosts = s.bestCosts
	e.bestIter = s.bestIter
	e.noImprove = s.noImprove
	e.evalsSince = s.evalsSince
	// Cached per-cell goodness refers to the speculated placement.
	e.invalidateAllGoodness()
}

// AdoptPlacementPatched replaces the current placement with p like
// AdoptPlacement, but through slot deltas when the incremental state is
// warm: only the differing cells move, the coordinate journal records
// them, and the next evaluation is O(moved nets) instead of a full
// rebuild. Falls back to AdoptPlacement when the engine has no warm
// incremental mirror or the delta application fails (e.g. row shapes
// differ, which cannot happen between placements of one run).
func (e *Engine) AdoptPlacementPatched(p *layout.Placement) {
	if e.inc == nil || e.incStale || !e.inc.Built() {
		e.AdoptPlacement(p)
		return
	}
	e.patchSlots = p.SnapshotSlots(e.patchSlots)
	e.patchDeltas = e.place.DiffSlotsTo(e.patchSlots, e.patchDeltas[:0])
	if err := e.PatchPlacement(e.patchDeltas); err != nil {
		e.AdoptPlacement(p)
	}
}
