package wire

import (
	"fmt"
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// floorCase is one circuit for the scan oracle, with the coordinate frame
// its cells are placed in: x' = x0 + sx·x, y' = y0 + sy·y. The identity
// frame is the engine's; the stress frame moves every pin far from the
// origin with inexact scale factors, so prefix-sum cancellation in the
// trunk branch sums is as large as it gets.
type floorCase struct {
	name           string
	ckt            *netlist.Circuit
	x0, sx, y0, sy float64
	ests           []Estimator
}

func (c *floorCase) yOf(row int) float64 { return c.y0 + c.sy*layout.RowY(row) }

// rowYs returns the case's row centerlines, yOf(0..rows-1).
func (c *floorCase) rowYs(rows int) []float64 {
	ys := make([]float64, rows)
	for r := range ys {
		ys[r] = c.yOf(r)
	}
	return ys
}

// weightProfiles mimic the engine's per-net trial weights for each
// objective set: wp is 1 + switching activity; wpd adds a timing
// criticality that can dwarf it; wpc adds a congestion demand score.
var weightProfiles = []struct {
	name             string
	crit, congestion bool
}{
	{"wp", false, false},
	{"wpd", true, false},
	{"wpc", false, true},
	{"wpdc", true, true},
}

func profileWeights(ckt *netlist.Circuit, crit, congestion bool, r *rng.R) []float64 {
	w := make([]float64, ckt.NumNets())
	for n := range w {
		w[n] = 1 + r.Float64()
		if crit {
			c := r.Float64()
			w[n] += 16 * c * c * c
		}
		if congestion {
			w[n] += 3 * r.Float64()
		}
	}
	return w
}

// stressCircuit has a few nets of 20+ pins: every gate reads three of
// four shared high-fanout signals, so each of those nets has ~30 pins.
func stressCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("stress")
	for i := 0; i < 4; i++ {
		b.AddInput(fmt.Sprintf("in%d", i))
	}
	for i := 0; i < 4; i++ {
		b.AddGate(fmt.Sprintf("h%d", i), netlist.Buf, []string{fmt.Sprintf("in%d", i)}, 0)
	}
	for i := 0; i < 40; i++ {
		in := []string{fmt.Sprintf("h%d", i%4), fmt.Sprintf("h%d", (i+1)%4), fmt.Sprintf("h%d", (i+2)%4)}
		if i > 0 {
			in = append(in, fmt.Sprintf("g%d", i-1))
		}
		b.AddGate(fmt.Sprintf("g%d", i), netlist.Nand, in, 0)
		if i%8 == 7 {
			b.AddOutput(fmt.Sprintf("g%d", i))
		}
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func floorCases(t *testing.T) []floorCase {
	t.Helper()
	var cases []floorCase
	// The prune-slack regression circuit first (s3330, the wpd case that
	// once caught an unsound prune), then the rest of the catalog.
	for _, name := range []string{"s3330", "s1196", "s1238", "s1488", "s1494"} {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, floorCase{name: name, ckt: ckt, sx: 1, sy: 1, ests: []Estimator{Steiner}})
	}
	r := rng.New(0x5ca1ab1e)
	for i := 0; i < 4; i++ {
		p := gen.Params{
			Name:  fmt.Sprintf("rand%d", i),
			Gates: 40 + r.Intn(360), DFFs: r.Intn(24),
			PIs: 2 + r.Intn(12), POs: 2 + r.Intn(12),
			Depth: 3 + r.Intn(12), Locality: 0.1 + 0.9*r.Float64(),
			Seed: r.Uint64(),
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		cases = append(cases, floorCase{name: p.Name, ckt: ckt, sx: 1, sy: 1, ests: allEstimators})
	}
	cases = append(cases, floorCase{
		name: "stress", ckt: stressCircuit(t),
		x0: 3.1e6, sx: 1.37, y0: 2.3e6, sy: 1.13, ests: allEstimators,
	})
	return cases
}

// TestScanMatchesBruteForceAndFloorsHold is the scan oracle: over the
// catalog, random generated circuits and a large-coordinate stress circuit
// with 20+-pin nets, under every weight profile and estimator, it runs an
// engine-style allocation pass — the selected cells' slots become the
// vacancy pool, and each cell in turn is lifted out, scanned and placed at
// its winner — and asserts for every cell that
//   - ScanBestRows returns the brute-force first minimum (the lowest index
//     with the strictly smallest Score), index and score bits, both
//     unbounded and under the engine's own-slot seed bound; and
//   - every bound the scan prunes with holds at every vacancy, per item
//     and per cell (checkItemFloors).
func TestScanMatchesBruteForceAndFloorsHold(t *testing.T) {
	for _, c := range floorCases(t) {
		for _, est := range c.ests {
			for pi, prof := range weightProfiles {
				c, est, prof := c, est, prof
				seed := uint64(pi+1)*0x9e3779b97f4a7c15 ^ uint64(est)
				t.Run(fmt.Sprintf("%s/est%d/%s", c.name, est, prof.name), func(t *testing.T) {
					checkAllocPass(t, &c, est, profileWeights(c.ckt, prof.crit, prof.congestion, rng.New(seed)), rng.New(seed+1))
				})
			}
		}
	}
}

func checkAllocPass(t *testing.T, c *floorCase, est Estimator, netW []float64, r *rng.R) {
	ckt := c.ckt
	rows := layout.DefaultNumRows(ckt)
	place := layout.NewRandom(ckt, rows, rng.New(9))
	inc := NewIncremental(ckt, est)
	inc.Rebuild(place)
	for id := range ckt.Cells {
		x, y := place.Coord(netlist.CellID(id))
		inc.MoveCell(netlist.CellID(id), c.x0+c.sx*x, c.y0+c.sy*y)
	}
	view := inc.View()

	// Select about a fifth of the movable cells (at most 160); their slots
	// are the vacancy pool, captured in selection order like the engine's.
	var sel []netlist.CellID
	var vacs []Vacancy
	for _, id := range ckt.Movable() {
		if r.Intn(5) != 0 || len(sel) == 160 {
			continue
		}
		x, _ := place.Coord(id)
		row := int(place.Slot(id).Row)
		sel = append(sel, id)
		vacs = append(vacs, Vacancy{X: c.x0 + c.sx*x, Y: c.yOf(row), Row: int32(row)})
	}
	var bk VacancyBuckets
	bk.Build(vacs, rows)
	used := make([]bool, len(vacs))
	rowOK := make([]bool, rows)
	var set TrialSet
	var nets []netlist.NetID
	var weights []float64
	rowY := c.rowYs(rows)

	for own, id := range sel {
		nets = ckt.CellNets(id, nets[:0])
		weights = weights[:0]
		for _, n := range nets {
			weights = append(weights, netW[n])
		}
		inc.RemoveCell(id)
		inc.CompileTrials(&set, nets, weights, rows)
		set.PrepareScan(rowY)
		for i := range rowOK {
			rowOK[i] = r.Intn(8) != 0
		}

		checkItemFloors(t, &set, view, vacs, rowY, own)

		want, wantScore := -1, 0.0
		for v := range vacs {
			if used[v] || !rowOK[vacs[v].Row] {
				continue
			}
			s := set.Score(view, vacs[v].X, vacs[v].Y, int(vacs[v].Row))
			if want < 0 || s < wantScore {
				want, wantScore = v, s
			}
		}
		bounds := []float64{math.Inf(1)}
		if !used[own] && rowOK[vacs[own].Row] {
			s := set.Score(view, vacs[own].X, vacs[own].Y, int(vacs[own].Row))
			bounds = append(bounds, math.Nextafter(s, math.Inf(1)))
		}
		for _, b0 := range bounds {
			got, gotScore := set.ScanBestRows(view, vacs, &bk, rowOK, 0, rows, b0, nil)
			if want < 0 {
				gotScore = wantScore
			}
			if got != want || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
				t.Fatalf("cell %d (#%d), bound0 %v: ScanBestRows (%d, %v) != brute force (%d, %v)",
					id, own, b0, got, gotScore, want, wantScore)
			}
		}

		// Commit like the engine: the winner, or any free slot when every
		// free row is infeasible.
		if want < 0 {
			for v := range vacs {
				if !used[v] {
					want = v
					break
				}
			}
		}
		used[want] = true
		bk.Commit(int32(want))
		inc.PlaceCell(id, vacs[want].X, vacs[want].Y)
	}
}

// checkItemFloors asserts the scan's bounds at every vacancy (occupied
// ones included: a bound must hold for ANY candidate). Per item, against
// the cost Score computes for that item alone — a one-item TrialSet scores
// exactly the item's weighted contribution to the full sum:
//   - the location-free floor (the item's share of C and of the oracle's
//     tail) never exceeds it, exactly — for a trunk this is the branch
//     floor against the float branch sums, cancellation included;
//   - the sharp row floor (the item's rowTail term) plus its exact x
//     penalty never exceeds it once deflated by scanSlack.
//
// Per cell, against the full Score: the sweep-built aggregates rowLB[r]
// and rowTail[r], each plus the x envelope, never exceed it once deflated
// by scanSlack. (The sweeps integrate slopes across rows and breakpoints,
// so their rounding is only bounded relative to the whole sum — per item
// they can overshoot a zero cost by an ulp.)
func checkItemFloors(t *testing.T, set *TrialSet, view *View, vacs []Vacancy, rowY []float64, own int) {
	t.Helper()
	stride := len(set.items) + 1
	for v, vac := range vacs {
		x, row := vac.X, int(vac.Row)
		cost := set.Score(view, x, vac.Y, row)
		set.ensureRowTail(row)
		env := 0.0
		if set.hasPrune {
			env = set.envAt(set.envSeg(x), x)
		}
		if lb := set.rowLB[row] + env; lb*scanSlack > cost {
			t.Fatalf("cell #%d at vacancy %d (%v, row %d): rowLB+env %v > cost %v", own, v, x, row, lb, cost)
		}
		if lb := set.rowTail[row*stride] + env; lb*scanSlack > cost {
			t.Fatalf("cell #%d at vacancy %d (%v, row %d): rowTail+env %v > cost %v", own, v, x, row, lb, cost)
		}
	}
	for i := range set.items {
		it := set.items[i]
		one := &TrialSet{
			items:    []compiledTrial{it},
			yClasses: len(rowY),
			memo:     make([]float64, 2*len(rowY)),
			filled:   make([]uint32, len(rowY)),
			epoch:    1,
		}
		one.PrepareScan(rowY)
		for v, vac := range vacs {
			x, row := vac.X, int(vac.Row)
			cost := one.Score(view, x, vac.Y, row)
			if lb := it.floor() * it.w; lb > cost {
				t.Fatalf("cell #%d item %d (kind %d, box x[%v,%v] y[%v,%v], dX %g, dY %g) at vacancy %d (%v, row %d): floor %v > item cost %v",
					own, i, it.kind, it.minX, it.maxX, it.minY, it.maxY, it.dX, it.dY, v, x, row, lb, cost)
			}
			one.ensureRowTail(row)
			xPen := 0.0
			if it.hasBox {
				xPen = math.Max(0, math.Max(it.minX-x, x-it.maxX))
			}
			if lb := one.rowTail[row*2] + it.w*xPen; lb*scanSlack > cost {
				t.Fatalf("cell #%d item %d (kind %d, dX %g) at vacancy %d (%v, row %d): row floor %v > item cost %v",
					own, i, it.kind, it.dX, v, x, row, lb, cost)
			}
		}
	}
}
