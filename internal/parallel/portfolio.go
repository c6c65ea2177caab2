package parallel

import (
	"fmt"

	"simevo/internal/core"
	"simevo/internal/layout"
)

// SearcherConfig describes one portfolio slot of a Type III run: the
// optimizer kind a searcher rank executes and its per-rank knobs. The
// store races the configured searchers against each other, tracks each
// rank's improvement rate, and reallocates consultation budgets — the
// portfolio-racer generalization of the paper's homogeneous Type III
// (grounded in BBOPlace-Bench's cross-optimizer comparison).
type SearcherConfig struct {
	// Kind selects the optimizer: "sime" (default) runs the SimE engine.
	// "sa" and "ts" are reserved slots behind the same Searcher interface
	// — constructing them returns a descriptive error until the annealing
	// and tabu searchers are ported onto the exchange protocol.
	Kind string
	// AllocOrder is the SimE allocation processing order for this slot.
	AllocOrder core.AllocOrder
	// Retry overrides the rank's initial consultation budget (0 uses the
	// run's Options.Retry). The store may cull or clone it afterwards.
	Retry int
	// SpecWindow is the number of speculative iterations a searcher runs
	// after adopting a remote best before the accept/reject decision
	// (0 = defaultSpecWindow).
	SpecWindow int
}

// defaultSpecWindow is the speculation horizon: long enough for an
// adopted solution to prove productive, short enough that a reject
// wastes little budget.
const defaultSpecWindow = 8

// Searcher is the optimizer interface a Type III portfolio slot runs
// behind: one local search step at a time, best-so-far tracking, and the
// speculative exchange hooks (snapshot, restore, patched adoption). The
// SimE engine implements it today; SA and TS slots plug in here.
type Searcher interface {
	Step() core.IterStats
	EvaluateCosts()
	BestMu() float64
	BestPlacement() *layout.Placement
	Snapshot() *core.SearchSnapshot
	Restore(*core.SearchSnapshot)
	// Adopt installs a foreign placement via the patched fast path (warm
	// incremental state preserved); AdoptFull rebuilds from scratch — the
	// legacy synchronous exchange's adoption cost.
	Adopt(*layout.Placement)
	AdoptFull(*layout.Placement)
}

// simeSearcher adapts *core.Engine to the Searcher interface.
type simeSearcher struct{ eng *core.Engine }

func (s simeSearcher) Step() core.IterStats              { return s.eng.Step() }
func (s simeSearcher) EvaluateCosts()                    { s.eng.EvaluateCosts() }
func (s simeSearcher) BestMu() float64                   { return s.eng.BestMu() }
func (s simeSearcher) BestPlacement() *layout.Placement  { return s.eng.BestPlacement() }
func (s simeSearcher) Snapshot() *core.SearchSnapshot    { return s.eng.SnapshotSearch() }
func (s simeSearcher) Restore(snap *core.SearchSnapshot) { s.eng.RestoreSearch(snap) }
func (s simeSearcher) Adopt(p *layout.Placement)         { s.eng.AdoptPlacementPatched(p) }
func (s simeSearcher) AdoptFull(p *layout.Placement)     { s.eng.AdoptPlacement(p) }

// searcherConfigFor resolves the portfolio slot of a searcher rank.
func searcherConfigFor(rank int, opt Options) SearcherConfig {
	var sc SearcherConfig
	if len(opt.Portfolio) > 0 {
		sc = opt.Portfolio[(rank-1)%len(opt.Portfolio)]
	} else if opt.Diversify {
		// Section 7's diversification proposal: a different allocation
		// function per thread steers the searches apart.
		sc.AllocOrder = core.AllocOrder((rank - 1) % 3)
	}
	if sc.Kind == "" {
		sc.Kind = "sime"
	}
	if sc.SpecWindow <= 0 {
		sc.SpecWindow = defaultSpecWindow
	}
	return sc
}

// newSearcher constructs the rank's portfolio searcher. Every searcher
// starts from the canonical reference placement with its own random
// stream (the paper's Table 4 setup).
func newSearcher(prob *core.Problem, rank int, sc SearcherConfig) (Searcher, error) {
	switch sc.Kind {
	case "sime":
		eng := prob.EngineFromReference(uint64(rank))
		eng.SetAllocOrder(sc.AllocOrder)
		return simeSearcher{eng: eng}, nil
	case "sa", "ts":
		return nil, fmt.Errorf("parallel: portfolio searcher kind %q is a reserved slot (not yet ported onto the exchange protocol)", sc.Kind)
	default:
		return nil, fmt.Errorf("parallel: unknown portfolio searcher kind %q (have sime; sa and ts are reserved)", sc.Kind)
	}
}
