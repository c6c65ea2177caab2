package main

import (
	"fmt"
	"runtime"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

// serialSpec is a serial SimE workload: repeated fixed-budget searches of
// one circuit, each from its own seed.
type serialSpec struct {
	build func() (*netlist.Circuit, error)
	check func(*netlist.Circuit) error // fingerprint gate, nil for catalog circuits
	obj   fuzzy.Objectives
	iters int
	est   time.Duration // expected duration of one search, for the window
}

// wpdcSpec: serial SimE on s3330, the largest catalog circuit, with every
// objective active (wire, power, delay, congestion).
func wpdcSpec() serialSpec {
	return serialSpec{
		build: func() (*netlist.Circuit, error) { return gen.Benchmark("s3330") },
		obj:   fuzzy.WirePowerDelayCongest,
		iters: 40,
		est:   400 * time.Millisecond,
	}
}

// tenKSpec: serial SimE, wire+power, on the pinned 10,000-cell generated
// circuit, where the allocation scan dominates.
func tenKSpec(pin circuitPin) serialSpec {
	return serialSpec{
		build: func() (*netlist.Circuit, error) {
			return gen.Generate(gen.ScaledParams(pin.Name, pin.Cells, pin.GenSeed))
		},
		check: func(ckt *netlist.Circuit) error {
			got, err := fingerprint(ckt)
			if err != nil {
				return err
			}
			if got != pin.Print {
				return fmt.Errorf("10k circuit fingerprint %+v, pinned %+v: refusing to measure a different circuit", got, pin.Print)
			}
			return nil
		},
		obj:   fuzzy.WirePower,
		iters: 30,
		est:   1400 * time.Millisecond,
	}
}

func runSerialWPDC(r *run) error { return runSerial(r, wpdcSpec()) }

func runSerial10k(r *run) error { return runSerial(r, tenKSpec(r.pins.Circuit10k)) }

// config is the engine configuration of one search.
func (spec serialSpec) config(seed uint64) core.Config {
	cfg := core.DefaultConfig(spec.obj)
	cfg.MaxIters = spec.iters
	cfg.Seed = seed
	cfg.AllocWorkers = 1
	return cfg
}

func runSerial(r *run, spec serialSpec) error {
	target := r.pins.Targets[r.workload]
	var setup, toTarget, wall, best, cpus, cpuT []float64
	acc := newLayerAcc()
	var held []any // the last search's problem and result, for heap_mb
	est := spec.est
	if r.trace {
		est *= 2 // each traced search also runs untraced, for the μ check and the overhead
	}
	for i := uint64(0); i == 0 || r.more(est); i++ {
		cfg := spec.config(r.subSeed(1, i))
		trace := fmt.Sprintf("search-%d", i)
		root := r.rec.begin(trace, "search", 0)
		prob, genD, probD, err := buildProblem(r.rec, trace, root, spec.build, spec.check, cfg)
		if err != nil {
			return err
		}
		setup = append(setup, (genD + probD).Seconds())
		acc.genS = append(acc.genS, genD.Seconds())
		acc.problemS = append(acc.problemS, probD.Seconds())

		id := r.rec.begin(trace, "core.RunContext", root)
		pr := runPlain(prob, target)
		r.rec.end(id)
		var problems []string
		if pr.toTarget == 0 {
			problems = append(problems, fmt.Sprintf("%s seed %d: best μ %.4f missed target %.4f in %d iterations",
				r.workload, cfg.Seed, pr.res.BestMu, target, spec.iters))
		}
		what := fmt.Sprintf("%s seed %d", r.workload, cfg.Seed)
		id = r.rec.begin(trace, "check", root)
		problems = append(problems, r.checkBest(what, prob, pr.res.Best, pr.res.BestMu)...)
		r.rec.end(id)
		if r.trace {
			problems = append(problems, r.traceTwin(trace, root, prob, pr, acc, what)...)
		}
		r.rec.end(root)
		r.done(problems)
		if pr.toTarget > 0 {
			toTarget = append(toTarget, pr.toTarget.Seconds())
		}
		wall = append(wall, pr.wall.Seconds())
		cpus = append(cpus, pr.cpu.Seconds())
		if pr.cpuToTarget > 0 {
			cpuT = append(cpuT, pr.cpuToTarget.Seconds())
		}
		best = append(best, pr.res.BestMu)
		held = []any{prob, pr.res}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(held)
	if r.trace {
		acc.emit(r, r.rec.totals())
		if err := fillLayerDefaults(r); err != nil {
			return err
		}
	}
	r.setE2E("setup_s", median(setup), "s")
	r.setE2E("cpu_to_target_s", midmean(cpuT), "s")
	r.setE2E("cpu_run_s", midmean(cpus), "s")
	r.setE2E("best_mu", median(best), "mu")
	r.setE2E("heap_mb", heap, "MiB")
	r.report["target_mu"] = target
	r.report["iterations_per_search"] = spec.iters
	r.report["searches"] = len(wall)
	r.report["serial_run_s"] = median(wall)
	r.report["time_to_target_s"] = median(toTarget)
	r.report["cpu_to_target_s_quartiles"] = []float64{quantile(cpuT, 0.25), quantile(cpuT, 0.75)}
	return nil
}
