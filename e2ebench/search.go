package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"simevo/internal/core"
	"simevo/internal/layout"
	"simevo/internal/netlist"
)

// plainRun is one untraced fixed-budget search through Engine.RunContext,
// timed on the wall clock and in process CPU time.
type plainRun struct {
	res         *core.Result
	wall        time.Duration
	toTarget    time.Duration // 0 when the running best never reached target
	cpu         time.Duration // process CPU time of the whole search
	cpuToTarget time.Duration // CPU time until target; 0 likewise
}

// runPlain runs prob's search to its budget, reading the time the running
// best μ first reaches target from the Progress stream.
func runPlain(prob *core.Problem, target float64) plainRun {
	eng := prob.NewEngine(0)
	var out plainRun
	best := math.Inf(-1)
	c0 := cpuNow()
	start := time.Now()
	out.res = eng.RunContext(context.Background(), func(st core.IterStats) {
		best = math.Max(best, st.Mu)
		if out.toTarget == 0 && best >= target {
			out.toTarget = time.Since(start)
			out.cpuToTarget = cpuNow() - c0
		}
	})
	out.wall = time.Since(start)
	out.cpu = cpuNow() - c0
	return out
}

// runStepped is the traced twin of runPlain: it steps the engine itself —
// EvaluateCosts → ComputeGoodness(movable) → SelectAndAllocate, exactly
// what Engine.Step does — with a span around each call, then evaluates
// the last allocation as RunContext does.
func runStepped(rec *recorder, trace string, parent int, prob *core.Problem) (*core.Engine, time.Duration) {
	eng := prob.NewEngine(0)
	movable := prob.Ckt.Movable()
	var goods []float64
	search := rec.begin(trace, "core.search", parent)
	start := time.Now()
	for it := 0; it < prob.Cfg.MaxIters; it++ {
		id := rec.begin(trace, "core.EvaluateCosts", search)
		eng.EvaluateCosts()
		rec.end(id)
		id = rec.begin(trace, "core.ComputeGoodness", search)
		goods = eng.ComputeGoodness(movable, goods)
		rec.end(id)
		id = rec.begin(trace, "core.SelectAndAllocate", search)
		eng.SelectAndAllocate()
		rec.end(id)
	}
	id := rec.begin(trace, "core.EvaluateCosts", search)
	eng.EvaluateCosts()
	rec.end(id)
	wall := time.Since(start)
	rec.end(search)
	return eng, wall
}

// traceTwin steps prob's search again with spans, folds its counters into
// acc, records the tracing overhead against the untraced run pr, and
// reports a problem when the two μ traces differ.
func (r *run) traceTwin(trace string, parent int, prob *core.Problem, pr plainRun, acc *layerAcc, what string) []string {
	eng, wall := runStepped(r.rec, trace, parent, prob)
	acc.addSearch(eng)
	acc.overhead = append(acc.overhead, wall.Seconds()/pr.wall.Seconds()-1)
	if !sameBits(eng.MuTrace(), pr.res.MuTrace) {
		return []string{what + ": traced μ trace differs from the untraced run"}
	}
	return nil
}

// checkBest returns the problems with a reported best solution: every
// movable cell must sit in exactly one slot, and evaluating the placement
// from scratch must reproduce the reported μ bit for bit. The paper's row
// width bound is measured, not failed: the current engine returns best
// placements that break it (see README.md, findings), and μ already
// charges the violation, which the bitwise re-evaluation covers.
func (r *run) checkBest(what string, prob *core.Problem, best *layout.Placement, bestMu float64) []string {
	if best == nil {
		return []string{what + ": no best placement returned"}
	}
	var problems []string
	if err := best.Validate(); err != nil {
		problems = append(problems, fmt.Sprintf("%s: illegal placement: %v", what, err))
	}
	r.mu.Lock()
	r.widthChecked++
	if !best.WidthOK(prob.Cfg.Alpha) {
		r.widthBroken++
		r.widthExcess = math.Max(r.widthExcess, best.WidthViolation(prob.Cfg.Alpha))
	}
	r.mu.Unlock()
	eng := prob.EngineFrom(best.Clone(), nil)
	eng.EvaluateCosts()
	if math.Float64bits(eng.Mu()) != math.Float64bits(bestMu) {
		problems = append(problems, fmt.Sprintf("%s: re-evaluated μ %.17g != reported best %.17g", what, eng.Mu(), bestMu))
	}
	return problems
}

// sameBits reports whether two μ traces are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// layerAcc accumulates the per-layer numbers of traced searches.
type layerAcc struct {
	iters, searches int
	counters        map[string]uint64        // summed EngineSnapshot counters
	phases          map[string]time.Duration // summed Engine.CostPhases
	genS, problemS  []float64                // per set-up span, seconds
	overhead        []float64                // traced/untraced search wall − 1
}

func newLayerAcc() *layerAcc {
	return &layerAcc{counters: map[string]uint64{}, phases: map[string]time.Duration{}}
}

// addSearch folds one traced search's engine counters into the totals.
func (a *layerAcc) addSearch(eng *core.Engine) {
	a.searches++
	a.iters += eng.Iter()
	tel := eng.Telemetry()
	for k, v := range tel.Counters() {
		a.counters[k] += v
	}
	for k, v := range eng.CostPhases() {
		a.phases[k] += v
	}
}

// emit sets the core, wire, cost, timing, congest and set-up layer
// metrics. spans are the recorder's per-name totals.
func (a *layerAcc) emit(r *run, spans map[string]time.Duration) {
	it := float64(a.iters)
	perIterMs := func(d time.Duration) float64 { return ratio(float64(d)/1e6, it) }
	nsPerIterMs := func(key string) float64 { return ratio(float64(a.counters[key])/1e6, it) }
	c := func(key string) float64 { return float64(a.counters[key]) }

	r.setLayer("gen.generate_s", median(a.genS), "s")
	r.setLayer("core.new_problem_s", median(a.problemS), "s")

	eval := spans["core.EvaluateCosts"]
	good := spans["core.ComputeGoodness"]
	selAlloc := spans["core.SelectAndAllocate"]
	iterMs := perIterMs(eval + good + selAlloc)
	r.setLayer("core.evaluate_costs_ms_per_iter", perIterMs(eval), "ms")
	r.setLayer("core.goodness_ms_per_iter", perIterMs(good), "ms")
	r.setLayer("core.select_alloc_ms_per_iter", perIterMs(selAlloc), "ms")
	r.setLayer("core.select_ms_per_iter", nsPerIterMs("select_ns"), "ms")
	r.setLayer("core.alloc_prep_ms_per_iter", nsPerIterMs("alloc_prep_ns"), "ms")
	r.setLayer("core.alloc_scan_ms_per_iter", nsPerIterMs("alloc_scan_ns"), "ms")
	r.setLayer("core.alloc_commit_ms_per_iter", nsPerIterMs("alloc_commit_ns"), "ms")
	r.setLayer("core.alloc_scan_share", ratio(nsPerIterMs("alloc_scan_ns"), iterMs), "ratio")
	r.setLayer("core.evaluate_share", ratio(perIterMs(eval+good), iterMs), "ratio")
	r.setLayer("core.dirty_nets_per_iter", ratio(c("dirty_nets"), it), "count")
	r.setLayer("core.goodness_hit_ratio", ratio(c("goodness_hits"), c("goodness_hits")+c("goodness_misses")), "ratio")

	visited := c("scan_vacancies")
	pruned := c("scan_pruned_bbox") + c("scan_pruned_suffix") + c("scan_bailed_exact")
	r.setLayer("wire.vacancies_visited_per_iter", ratio(visited, it), "count")
	r.setLayer("wire.scored_per_iter", ratio(c("scan_scored"), it), "count")
	r.setLayer("wire.scored_per_visited", ratio(c("scan_scored"), visited), "ratio")
	r.setLayer("wire.pruned_share", ratio(pruned, visited), "ratio")
	r.setLayer("wire.rows_visited_per_iter", ratio(c("scan_rows_visited"), it), "count")

	us := func(name string) float64 { return ratio(float64(a.phases[name])/1e3, it) }
	r.setLayer("cost.wire_us_per_iter", us("wire"), "us")
	r.setLayer("cost.power_us_per_iter", us("power"), "us")
	// Delay and congestion run only on serial-s3330-wpdc; as shares of
	// the evaluation span they read 0, not a constant time, elsewhere.
	r.setLayer("cost.delay_share", ratio(float64(a.phases["delay"]), float64(eval)), "ratio")
	r.setLayer("cost.congestion_share", ratio(float64(a.phases["congestion"]), float64(eval)), "ratio")
	r.report["cost.delay_us_per_iter"] = us("delay")
	r.report["cost.congestion_us_per_iter"] = us("congestion")
	s := float64(a.searches)
	r.setLayer("cost.dirty_calls", ratio(c("cost_dirty"), s), "count")
	r.setLayer("cost.dirty_fallback_calls", ratio(c("cost_dirty_fallback"), s), "count")
	r.setLayer("timing.updates", ratio(c("timing_updates"), s), "count")
	r.setLayer("timing.rebuilds", ratio(c("timing_rebuilds"), s), "count")
	r.setLayer("congest.bin_updates_per_iter", ratio(c("congest_bin_updates"), it), "count")

	r.setLayer("trace.overhead", median(a.overhead), "ratio")
	r.report["traced_searches"] = a.searches
	r.report["traced_iterations"] = a.iters
}

// cpuTimed returns f's result and the process CPU time it took.
func cpuTimed[T any](f func() (T, error)) (T, time.Duration, error) {
	t := cpuNow()
	v, err := f()
	return v, cpuNow() - t, err
}

// buildProblem is the set-up every search pays: generate the circuit, then
// core.NewProblem. It returns both CPU times; check, when non-nil, vets
// the circuit (untimed) before the problem is built.
func buildProblem(rec *recorder, trace string, parent int, build func() (*netlist.Circuit, error),
	check func(*netlist.Circuit) error, cfg core.Config) (*core.Problem, time.Duration, time.Duration, error) {
	id := rec.begin(trace, "gen.Generate", parent)
	ckt, genD, err := cpuTimed(build)
	rec.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	if check != nil {
		if err := check(ckt); err != nil {
			return nil, 0, 0, err
		}
	}
	id = rec.begin(trace, "core.NewProblem", parent)
	prob, probD, err := cpuTimed(func() (*core.Problem, error) { return core.NewProblem(ckt, cfg) })
	rec.end(id)
	return prob, genD, probD, err
}
