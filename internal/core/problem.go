package core

import (
	"fmt"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/power"
	"simevo/internal/rng"
)

// Statics is the seed-independent part of a Problem: the circuit, its
// levelization, its switching activities under one power.Config, and the
// per-net minimal-attachment tables. It depends on the circuit and the
// power configuration only, so every search of one circuit — any seed,
// budget, objective set or strategy — can derive its Problem from one
// Statics. Nothing writes to a Statics after NewStatics returns: problems
// and engines on any goroutine read it concurrently.
type Statics struct {
	Ckt *netlist.Circuit
	Lv  *netlist.Levels
	// Acts are the per-net switching activities S_i, derived from one run
	// of the power probability fixpoint (a whole-circuit propagation)
	// under PowerConfig and shared by every engine, the reference-cost
	// evaluation, and the metaheuristics.
	Acts        []float64
	PowerConfig power.Config

	// Per-net minimal-attachment tables: the smallest pin-cell width with
	// the (pin-order-first) cell achieving it, and the smallest width among
	// pins of any other cell (-1 when the net has pins of only one cell).
	// minAttach reads them in O(1); widths are static, so this is computed
	// once instead of per (cell, net) per iteration.
	attachC1 []netlist.CellID
	attachW1 []int32
	attachW2 []int32
}

// Problem bundles a Statics with the validated configuration of one
// search and what that configuration implies: the reference costs of the
// seed's canonical initial placement and the per-objective lower bounds.
// In the paper's cluster each MPI process computes this once at startup;
// here the parallel strategies share one Problem across ranks.
type Problem struct {
	// Statics is a copy of the shared tables' headers; the tables
	// themselves are shared, never copied.
	Statics
	Cfg Config

	// Ref holds the objective costs of the canonical initial placement;
	// Lower = Ref / goal factors normalizes the fuzzy memberships.
	Ref   fuzzy.Costs
	Lower fuzzy.Costs
	OWA   fuzzy.OWA
}

// NewStatics levelizes the circuit, runs the activity fixpoint under pc
// (the zero value selects power.DefaultConfig, as Config validation does)
// and builds the attachment tables. The circuit must not change afterwards.
func NewStatics(ckt *netlist.Circuit, pc power.Config) (*Statics, error) {
	pc = normalizePower(pc)
	lv, err := ckt.Levelize()
	if err != nil {
		return nil, err
	}
	probs, err := power.Probabilities(ckt, pc)
	if err != nil {
		return nil, err
	}
	s := &Statics{Ckt: ckt, Lv: lv, Acts: power.FromProbabilities(probs), PowerConfig: pc}
	s.buildAttach()
	return s, nil
}

// NewProblem validates the configuration and derives the seed's reference
// costs and lower bounds. The configuration's power model must be the one
// the activities were computed under.
func (s *Statics) NewProblem(cfg Config) (*Problem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PowerConfig != s.PowerConfig {
		return nil, fmt.Errorf("core: config power model %+v differs from the statics' %+v",
			cfg.PowerConfig, s.PowerConfig)
	}
	p := &Problem{Statics: *s, Cfg: cfg, OWA: fuzzy.OWA{Beta: cfg.Beta}}
	p.Ref = referenceCosts(s.Ckt, &cfg, s.Lv, s.Acts)
	if p.Ref.Wire <= 0 || p.Ref.Power <= 0 {
		return nil, fmt.Errorf("core: degenerate reference costs %+v", p.Ref)
	}
	p.Lower = lowerBoundsFromReference(p.Ref, cfg.Goals)
	return p, nil
}

// NewProblem validates the configuration and precomputes the shared data:
// NewStatics under the configuration's power model, then
// Statics.NewProblem.
func NewProblem(ckt *netlist.Circuit, cfg Config) (*Problem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := NewStatics(ckt, cfg.PowerConfig)
	if err != nil {
		return nil, err
	}
	return s.NewProblem(cfg)
}

// buildAttach fills the per-net minimal-attachment tables. For each net it
// records the first pin (in driver-then-sinks order) holding the smallest
// cell width, plus the smallest width among pins whose cell differs from
// that one — exactly the two candidates minAttach needs: excluding cell id
// leaves w1 when id is not the minimal cell, w2 (the minimum over cells
// other than the minimal one, all of which differ from id) when it is.
func (s *Statics) buildAttach() {
	ckt := s.Ckt
	n := ckt.NumNets()
	s.attachC1 = make([]netlist.CellID, n)
	s.attachW1 = make([]int32, n)
	s.attachW2 = make([]int32, n)
	for i := 0; i < n; i++ {
		w1, w2 := int32(-1), int32(-1)
		c1 := netlist.NoCell
		consider := func(c netlist.CellID) {
			if c == netlist.NoCell {
				return
			}
			w := int32(ckt.Cells[c].Width)
			switch {
			case w1 < 0 || w < w1:
				if c != c1 {
					// The displaced minimum becomes a w2 candidate only if
					// it belongs to a different cell.
					if c1 != netlist.NoCell && (w2 < 0 || w1 < w2) {
						w2 = w1
					}
					c1 = c
				}
				w1 = w
			case c != c1 && (w2 < 0 || w < w2):
				w2 = w
			}
		}
		net := &ckt.Nets[i]
		consider(net.Driver)
		for _, sink := range net.Sinks {
			consider(sink)
		}
		s.attachC1[i], s.attachW1[i], s.attachW2[i] = c1, w1, w2
	}
}

// NewEngine creates an engine with a fresh random initial placement drawn
// from the problem seed combined with the given stream (rank) number.
func (p *Problem) NewEngine(stream uint64) *Engine {
	rnd := rng.NewStream(p.Cfg.Seed, stream)
	place := initialPlacement(p.Ckt, &p.Cfg, rnd)
	return p.EngineFrom(place, rnd)
}

// EngineFromReference creates an engine that starts from the canonical
// initial placement (the one μ is normalized against) but draws its random
// decisions from the given stream. The paper's Type III experiments run
// every thread "using the same starting solution but with different
// randomization seeds" — this is that construction.
func (p *Problem) EngineFromReference(stream uint64) *Engine {
	refRnd := rng.NewStream(p.Cfg.Seed, refStream)
	place := initialPlacement(p.Ckt, &p.Cfg, refRnd)
	return p.EngineFrom(place, rng.NewStream(p.Cfg.Seed, stream))
}

// EngineFrom wraps an existing placement (takes ownership) with a SimE
// engine using the supplied generator.
func (p *Problem) EngineFrom(place *layout.Placement, rnd *rng.R) *Engine {
	e := &Engine{
		prob:  p,
		place: place,
		rnd:   rnd,
	}
	e.init()
	return e
}
