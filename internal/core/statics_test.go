package core

import (
	"math"
	"slices"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/power"
)

// staticsCopy is a deep copy of a Statics' tables, to prove the searches
// that read them never write to them.
type staticsCopy struct {
	level    []int
	order    []netlist.CellID
	depth    int
	acts     []uint64
	attachC1 []netlist.CellID
	attachW1 []int32
	attachW2 []int32
}

func copyStatics(s *Statics) staticsCopy {
	acts := make([]uint64, len(s.Acts))
	for i, a := range s.Acts {
		acts[i] = math.Float64bits(a)
	}
	return staticsCopy{
		level: slices.Clone(s.Lv.Level), order: slices.Clone(s.Lv.Order), depth: s.Lv.Depth,
		acts:     acts,
		attachC1: slices.Clone(s.attachC1),
		attachW1: slices.Clone(s.attachW1),
		attachW2: slices.Clone(s.attachW2),
	}
}

func (c staticsCopy) equal(o staticsCopy) bool {
	return slices.Equal(c.level, o.level) && slices.Equal(c.order, o.order) && c.depth == o.depth &&
		slices.Equal(c.acts, o.acts) && slices.Equal(c.attachC1, o.attachC1) &&
		slices.Equal(c.attachW1, o.attachW1) && slices.Equal(c.attachW2, o.attachW2)
}

func costBits(c fuzzy.Costs) [4]uint64 {
	return [4]uint64{math.Float64bits(c.Wire), math.Float64bits(c.Power),
		math.Float64bits(c.Delay), math.Float64bits(c.Congest)}
}

// TestStaticsSharedMatchesNewProblem derives every (objective set, seed)
// problem of each catalog circuit from one shared Statics and requires
// what core.NewProblem builds from a private circuit, bit for bit: the
// reference costs, the lower bounds and a short μ trace. The shared
// tables must come out of all those searches unchanged.
func TestStaticsSharedMatchesNewProblem(t *testing.T) {
	objs := []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay,
		fuzzy.WirePowerCongest, fuzzy.WirePowerDelayCongest}
	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStatics(ckt, power.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		before := copyStatics(s)
		for _, obj := range objs {
			for _, seed := range []uint64{3, 2006} {
				cfg := DefaultConfig(obj)
				cfg.MaxIters = 5
				cfg.Seed = seed
				shared, err := s.NewProblem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if &shared.Acts[0] != &s.Acts[0] || shared.Ckt != s.Ckt {
					t.Fatalf("%s: the derived problem copied the shared tables", name)
				}
				own, err := gen.Benchmark(name)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewProblem(own, cfg)
				if err != nil {
					t.Fatal(err)
				}
				what := name + " " + obj.String()
				if costBits(shared.Ref) != costBits(fresh.Ref) || costBits(shared.Lower) != costBits(fresh.Lower) {
					t.Fatalf("%s seed %d: shared Ref %+v Lower %+v, fresh Ref %+v Lower %+v",
						what, seed, shared.Ref, shared.Lower, fresh.Ref, fresh.Lower)
				}
				a, b := shared.NewEngine(0).Run().MuTrace, fresh.NewEngine(0).Run().MuTrace
				if len(a) != len(b) || len(a) == 0 {
					t.Fatalf("%s seed %d: trace lengths %d and %d", what, seed, len(a), len(b))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s seed %d: μ trace diverged at %d: shared %v, fresh %v", what, seed, i, a[i], b[i])
					}
				}
			}
		}
		if !copyStatics(s).equal(before) {
			t.Fatalf("%s: the searches wrote to the shared statics", name)
		}
	}
}

// TestStaticsRejectsOtherPowerModel: activities are computed under one
// power model, so a config naming another must not derive a problem.
func TestStaticsRejectsOtherPowerModel(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStatics(ckt, power.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.PowerConfig != power.DefaultConfig() {
		t.Fatalf("zero power config normalized to %+v, want the default", s.PowerConfig)
	}
	cfg := DefaultConfig(fuzzy.WirePower)
	if _, err := s.NewProblem(cfg); err != nil {
		t.Fatalf("default power model rejected: %v", err)
	}
	cfg.PowerConfig.PIProb = 0.3
	if _, err := s.NewProblem(cfg); err == nil {
		t.Fatal("a config with another power model derived a problem")
	}
}
