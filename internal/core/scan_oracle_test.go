package core

import (
	"fmt"
	"math"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

// oracleAllocPass runs one Selection + Allocation like SelectAndAllocate,
// but checks every cell's pruned scan against the brute-force first
// minimum before committing it: the lowest vacancy index with the
// strictly smallest Score over the free width-feasible vacancies, index
// and score bits, under both the engine's own-slot seed bound and no
// bound. The commit mirrors allocate, so the engine can keep stepping.
func oracleAllocPass(t *testing.T, e *Engine) {
	t.Helper()
	e.EvaluateCosts()
	e.goodsOut = e.ComputeGoodness(e.domain, e.goodsOut)
	sel := e.selectCells()
	ckt := e.prob.Ckt
	n, numRows := len(sel), e.place.NumRows()
	e.vacRef = resizeRefs(e.vacRef, n)
	e.vacs = resizeVacs(e.vacs, n)
	e.vacUsed = resizeBool(e.vacUsed, n)
	e.rowW = e.rowW[:0]
	for r := 0; r < numRows; r++ {
		e.rowW = append(e.rowW, e.place.RowWidth(r))
	}
	for i, id := range sel {
		x, y := e.place.Coord(id)
		ref := e.place.RemoveToHole(id)
		e.vacRef[i] = ref
		e.vacs[i].X, e.vacs[i].Y, e.vacs[i].Row = x, y, ref.Row
		e.vacUsed[i] = false
		e.rowW[ref.Row] -= ckt.Cells[id].Width
	}
	limit := (1 + e.prob.Cfg.Alpha) * e.place.AvgRowWidth()
	e.buckets.Build(e.vacs, numRows)
	e.rowOK = resizeBool(e.rowOK, numRows)
	view := e.inc.BaseView()
	for own, id := range sel {
		w := ckt.Cells[id].Width
		e.prepTrial(id, true)
		for r := range e.rowOK {
			e.rowOK[r] = float64(e.rowW[r]+w) <= limit
		}
		want, wantScore := -1, 0.0
		for v := 0; v < n; v++ {
			if e.vacUsed[v] || !e.rowOK[e.vacs[v].Row] {
				continue
			}
			s := e.trials.Score(view, e.vacs[v].X, e.vacs[v].Y, int(e.vacs[v].Row))
			if want < 0 || s < wantScore {
				want, wantScore = v, s
			}
		}
		for _, b0 := range []float64{e.seedBound(own), math.Inf(1)} {
			got, gotScore := e.trials.ScanBestRows(view, e.vacs, &e.buckets, e.rowOK, 0, numRows, b0, nil)
			if got != want || (want >= 0 && math.Float64bits(gotScore) != math.Float64bits(wantScore)) {
				t.Fatalf("iter %d cell %d (#%d of %d), bound0 %v: ScanBestRows (%d, %v) != brute force (%d, %v)",
					e.iter, id, own, n, b0, got, gotScore, want, wantScore)
			}
		}
		if want < 0 { // every free row infeasible: smallest violation
			bestViol := 0.0
			for v := 0; v < n; v++ {
				if e.vacUsed[v] {
					continue
				}
				viol := float64(e.rowW[e.vacs[v].Row]+w) - limit
				if want < 0 || viol < bestViol {
					want, bestViol = v, viol
				}
			}
		}
		e.place.FillHole(e.vacRef[want], id)
		e.place.SetCoordHint(id, e.vacs[want].X, e.vacs[want].Y)
		e.inc.PlaceCell(id, e.vacs[want].X, e.vacs[want].Y)
		e.buckets.Commit(int32(want))
		e.vacUsed[want] = true
		e.rowW[e.vacs[want].Row] += w
	}
	e.place.Recompute()
	e.iter++
}

// TestScanBestRowsMatchesBruteForceAllModes is the engine-level scan
// oracle: on the wpd case that once caught an unsound prune (s3330, seed
// 11 — TestScanPruneSlackRegression), every catalog circuit and random
// generated circuits, under each objective set's real trial weights
// (activity, STA criticality, congestion demand), every cell of an
// allocation pass must get the brute-force winner. Two oracle passes run
// per setup, the second after ordinary iterations have moved the
// placement and the objective weights; a twin engine stepping normally
// must reach the same placements.
func TestScanBestRowsMatchesBruteForceAllModes(t *testing.T) {
	type setup struct {
		name string
		ckt  func() (*netlist.Circuit, error)
		seed uint64
		objs []fuzzy.Objectives
	}
	all := []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay, fuzzy.WirePowerCongest, fuzzy.WirePowerDelayCongest}
	setups := []setup{{
		name: "s3330-slack-regression",
		ckt:  func() (*netlist.Circuit, error) { return gen.Benchmark("s3330") },
		seed: 11, objs: []fuzzy.Objectives{fuzzy.WirePowerDelay},
	}}
	for _, name := range gen.Catalog() {
		name := name
		setups = append(setups, setup{
			name: name, ckt: func() (*netlist.Circuit, error) { return gen.Benchmark(name) },
			seed: 2006, objs: all,
		})
	}
	for i := 0; i < 3; i++ {
		p := gen.Params{
			Name: fmt.Sprintf("rand%d", i), Gates: 80 + 150*i, DFFs: 4 + 3*i,
			Depth: 5 + 3*i, Locality: 0.25 + 0.3*float64(i), Seed: uint64(1000 + i),
		}
		setups = append(setups, setup{
			name: p.Name, ckt: func() (*netlist.Circuit, error) { return gen.Generate(p) },
			seed: uint64(7 + i), objs: all,
		})
	}
	for _, s := range setups {
		for _, obj := range s.objs {
			s, obj := s, obj
			t.Run(fmt.Sprintf("%s/%v", s.name, obj), func(t *testing.T) {
				ckt, err := s.ckt()
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(obj)
				cfg.Seed = s.seed
				p, err := NewProblem(ckt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// twin runs the engine's own Step in lockstep: the oracle's
				// per-cell feasibility and commits are recomputed from
				// scratch, so equal placements pin allocate's incremental
				// row-feasibility bookkeeping too.
				e, twin := p.NewEngine(0), p.NewEngine(0)
				lockstep := func(when string) {
					t.Helper()
					if got, want := twin.Placement().Fingerprint(), e.Placement().Fingerprint(); got != want {
						t.Fatalf("%s: Step placement %x != oracle pass placement %x", when, got, want)
					}
				}
				oracleAllocPass(t, e)
				twin.Step()
				lockstep("first pass")
				for i := 0; i < 3; i++ {
					e.Step()
					twin.Step()
				}
				oracleAllocPass(t, e)
				twin.Step()
				lockstep("fifth pass")
			})
		}
	}
}
