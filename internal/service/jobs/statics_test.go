package jobs

import (
	"context"
	"math"
	"testing"

	"simevo/internal/core"
	"simevo/internal/gen"
	"simevo/internal/parallel"
)

// libraryRun runs a normalized spec through the library on a freshly
// generated circuit and a problem built by core.NewProblem, with the
// configuration buildProblem derives — the reference a service job must
// reproduce bit for bit.
func libraryRun(t *testing.T, spec Spec) (mu float64, costs [2]float64) {
	t.Helper()
	ckt, err := gen.Benchmark(spec.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(ckt, specConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Strategy == StrategySerial {
		res := prob.NewEngine(0).Run()
		return res.BestMu, [2]float64{res.BestCosts.Wire, res.BestCosts.Power}
	}
	opt := specOptions(context.Background(), spec, nil)
	var res *parallel.Result
	switch spec.Strategy {
	case StrategyTypeII:
		res, err = parallel.RunTypeII(prob, opt)
	case StrategyTypeIII:
		res, err = parallel.RunTypeIII(prob, opt)
	default:
		t.Fatalf("no library reference for strategy %s", spec.Strategy)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.BestMu, [2]float64{res.BestCosts.Wire, res.BestCosts.Power}
}

// TestSharedStaticsConcurrentJobs runs overlapping jobs on two catalog
// circuits through the process-wide statics store — serial, Type II and
// Type III, with distinct and repeated seeds, identical specs included
// (the result cache is off so both copies run) — and requires every job
// to match a library run on a private circuit bit for bit.
func TestSharedStaticsConcurrentJobs(t *testing.T) {
	specs := []Spec{
		{Circuit: "s1196", Strategy: StrategySerial, MaxIters: 12, Seed: 1},
		{Circuit: "s1196", Strategy: StrategySerial, MaxIters: 12, Seed: 1},
		{Circuit: "s1196", Strategy: StrategySerial, MaxIters: 12, Seed: 2},
		{Circuit: "s1196", Strategy: StrategyTypeII, MaxIters: 8, Seed: 1, Procs: 2},
		{Circuit: "s1196", Strategy: StrategyTypeIII, MaxIters: 8, Seed: 2, Procs: 3},
		{Circuit: "s3330", Strategy: StrategySerial, MaxIters: 6, Seed: 1},
		{Circuit: "s3330", Strategy: StrategySerial, MaxIters: 6, Seed: 1, Objectives: "wire+power+delay"},
		{Circuit: "s3330", Strategy: StrategyTypeII, MaxIters: 5, Seed: 2, Procs: 3},
		{Circuit: "s3330", Strategy: StrategyTypeIII, MaxIters: 5, Seed: 1, Procs: 3},
		{Circuit: "s3330", Strategy: StrategyTypeIII, MaxIters: 5, Seed: 1, Procs: 3},
	}
	m := NewManager(Options{Workers: 2, CacheSize: -1})
	defer m.Close()
	ids := make([]string, len(specs))
	for i, s := range specs {
		v, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for i, s := range specs {
		norm, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		mu, costs := libraryRun(t, norm)
		v := waitTerminal(t, m, ids[i])
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("job %d (%+v) ended %s: %s", i, s, v.State, v.Error)
		}
		r := v.Result
		if math.Float64bits(r.BestMu) != math.Float64bits(mu) ||
			math.Float64bits(r.Wire) != math.Float64bits(costs[0]) ||
			math.Float64bits(r.Power) != math.Float64bits(costs[1]) {
			t.Fatalf("job %d (%+v): service μ %.17g wire %.17g power %.17g, library μ %.17g wire %.17g power %.17g",
				i, s, r.BestMu, r.Wire, r.Power, mu, costs[0], costs[1])
		}
	}
}
