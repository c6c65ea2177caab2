package core

import (
	"fmt"
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/rng"
)

// randomGenParams draws small gen.Generate parameters from r: every field
// the generator reads varies, and the result always satisfies Generate's
// preconditions (Gates >= Depth, positive pad counts).
func randomGenParams(r *rng.R, i int) gen.Params {
	depth := 2 + r.Intn(10)
	fanin := make([]float64, 1+r.Intn(5))
	for k := range fanin {
		fanin[k] = 0.05 + r.Float64()
	}
	return gen.Params{
		Name:      fmt.Sprintf("prop%d", i),
		Gates:     depth + 30 + r.Intn(150),
		DFFs:      r.Intn(16),
		PIs:       1 + r.Intn(12),
		POs:       1 + r.Intn(12),
		Depth:     depth,
		FaninDist: fanin,
		Locality:  0.05 + 0.95*r.Float64(),
		Seed:      r.Uint64(),
	}
}

// TestGeneratedCircuitsIncrementalMatchesReference is the property form of
// the incremental engine's contract: on small circuits generated from
// seeded random parameters, for every objective set (wp, wpd, wpc, wpdc),
// the incremental engine follows bitwise the reference mode's
// (DisableIncremental) trajectory — through the periodic full recompute,
// which the short FullEvalEvery puts several times inside each run, and
// through a snapshot → speculate → restore cycle. It pins every cached
// value the engine carries between iterations: committed net lengths,
// prefix sums, trial records and the allocation scan's bounds.
func TestGeneratedCircuitsIncrementalMatchesReference(t *testing.T) {
	r := rng.New(0x5e1f)
	for i := 0; i < 4; i++ {
		params := randomGenParams(r, i)
		ckt, err := gen.Generate(params)
		if err != nil {
			t.Fatalf("%+v: %v", params, err)
		}
		seed := r.Uint64()
		for _, obj := range snapshotObjectiveSets {
			t.Run(fmt.Sprintf("%s/%v", params.Name, obj), func(t *testing.T) {
				t.Parallel()
				run := func(disable bool) genTrace {
					cfg := DefaultConfig(obj)
					cfg.MaxIters = 14
					cfg.Seed = seed
					cfg.FullEvalEvery = 4
					cfg.DisableIncremental = disable
					p, err := NewProblem(ckt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return scriptedRun(p)
				}
				ref, inc := run(true), run(false)
				ref.mustEqual(t, inc)
			})
		}
	}
}

// genTrace is what scriptedRun observes of one engine.
type genTrace struct {
	runTrace, stepTrace []float64
	runBest, stepFinal  uint64 // placement fingerprints
	runBestMu           float64
	restoredMu          float64
	stepCosts           [4]float64
}

// scriptedRun drives two engines of p: one through Run, one step by step
// with a snapshot taken after a few iterations, a speculative window, and
// a restore before the search continues.
func scriptedRun(p *Problem) genTrace {
	var g genTrace
	res := p.NewEngine(0).Run()
	g.runTrace, g.runBest, g.runBestMu = res.MuTrace, res.Best.Fingerprint(), res.BestMu

	e := p.NewEngine(1)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	e.EvaluateCosts()
	snap := e.SnapshotSearch()
	for i := 0; i < 5; i++ {
		e.Step()
	}
	e.RestoreSearch(snap)
	g.restoredMu = e.Mu()
	for i := 0; i < 6; i++ {
		e.Step()
	}
	e.EvaluateCosts()
	g.stepTrace = e.MuTrace()
	g.stepFinal = e.Placement().Fingerprint()
	c := e.Costs()
	g.stepCosts = [4]float64{c.Wire, c.Power, c.Delay, c.Congest}
	return g
}

func (ref genTrace) mustEqual(t *testing.T, inc genTrace) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	traces := []struct {
		name     string
		ref, inc []float64
	}{{"Run", ref.runTrace, inc.runTrace}, {"stepped", ref.stepTrace, inc.stepTrace}}
	for _, tr := range traces {
		if len(tr.ref) != len(tr.inc) {
			t.Fatalf("%s μ trace lengths: reference %d, incremental %d", tr.name, len(tr.ref), len(tr.inc))
		}
		for k := range tr.ref {
			if !same(tr.ref[k], tr.inc[k]) {
				t.Fatalf("%s μ trace diverged at %d: reference %v, incremental %v", tr.name, k, tr.ref[k], tr.inc[k])
			}
		}
	}
	if !same(ref.runBestMu, inc.runBestMu) || ref.runBest != inc.runBest {
		t.Fatalf("Run best: reference μ %v (%x), incremental μ %v (%x)", ref.runBestMu, ref.runBest, inc.runBestMu, inc.runBest)
	}
	if !same(ref.restoredMu, inc.restoredMu) {
		t.Fatalf("restored μ: reference %v, incremental %v", ref.restoredMu, inc.restoredMu)
	}
	if ref.stepFinal != inc.stepFinal {
		t.Fatalf("stepped final placement: reference %x, incremental %x", ref.stepFinal, inc.stepFinal)
	}
	for k := range ref.stepCosts {
		if !same(ref.stepCosts[k], inc.stepCosts[k]) {
			t.Fatalf("stepped final cost %d: reference %v, incremental %v", k, ref.stepCosts[k], inc.stepCosts[k])
		}
	}
}
