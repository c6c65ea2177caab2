package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/mpi"
	"simevo/internal/netlist"
	"simevo/internal/parallel"
)

// clusterIters is the fixed budget of every run in a cluster sweep. Type I
// and Type III ignore TargetMu, so every strategy runs the same budget and
// the time to target is read from its Progress stream.
const clusterIters = 60

// type3Retry is the Type III retry threshold: a searcher consults the
// store after this many iterations without improvement. The strategy
// default (100) exceeds the budget and leaves the exchange idle; at 10
// searchers still never adopt within 60 iterations, at 3 they adopt and
// roll back a few times per run, so the speculation path is measured.
const type3Retry = 3

// clusterConfig is the problem configuration every run of a sweep shares.
func clusterConfig(seed uint64, iters int) core.Config {
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = iters
	cfg.Seed = seed
	cfg.AllocWorkers = 1
	return cfg
}

// strategy is one parallel run of a sweep.
type strategy struct {
	name  string
	procs int
	run   func(*core.Problem, parallel.Options) (*parallel.Result, error)
}

var strategies = []strategy{
	{"type1", 2, parallel.RunTypeI},
	{"type2", 2, parallel.RunTypeII},
	{"type3", 3, parallel.RunTypeIII},
}

// runCluster: each sweep runs a plain serial reference, then Type I (p=2),
// Type II (p=2) and Type III (p=3) on the in-process virtual-time cluster,
// all on s3330 with wire+power, the same budget, FastEthernet and
// AllocWorkers 1.
func runCluster(r *run) error {
	target := r.pins.Targets[r.workload]
	build := func() (*netlist.Circuit, error) { return gen.Benchmark("s3330") }
	var setup, sweepTarget, sweepWall, sweepCPUTarget, sweepCPU, worstMu []float64
	per := map[string][]float64{} // per-strategy samples for the report
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	mpiAcc := map[string][]mpi.RankStats{}
	var exch []*parallel.ExchangeStats
	acc := newLayerAcc()
	var held []any // the last sweep's problem and results, for heap_mb
	est := 2 * time.Second
	for i := uint64(0); i == 0 || r.more(est); i++ {
		cfg := clusterConfig(r.subSeed(2, i), clusterIters)
		trace := fmt.Sprintf("sweep-%d", i)
		root := r.rec.begin(trace, "sweep", 0)
		prob, genD, probD, err := buildProblem(r.rec, trace, root, build, nil, cfg)
		if err != nil {
			return err
		}
		setup = append(setup, (genD + probD).Seconds())
		acc.genS = append(acc.genS, genD.Seconds())
		acc.problemS = append(acc.problemS, probD.Seconds())
		what := fmt.Sprintf("%s seed %d", r.workload, cfg.Seed)
		var problems []string
		missed := func(name string, hit time.Duration, mu float64) {
			if hit == 0 {
				problems = append(problems, fmt.Sprintf("%s %s: best μ %.4f missed target %.4f", what, name, mu, target))
			}
		}

		id := r.rec.begin(trace, "core.RunContext", root)
		ser := runPlain(prob, target)
		r.rec.end(id)
		missed("serial", ser.toTarget, ser.res.BestMu)
		problems = append(problems, r.checkBest(what+" serial", prob, ser.res.Best, ser.res.BestMu)...)
		if r.trace {
			problems = append(problems, r.traceTwin(trace, root, prob, ser, acc, what+" serial")...)
		}
		sumTarget, sumWall := ser.toTarget.Seconds(), ser.wall.Seconds()
		sumCPUTarget, sumCPU := ser.cpuToTarget.Seconds(), ser.cpu.Seconds()
		lowest := ser.res.BestMu
		add("serial_run_s", ser.wall.Seconds())
		add("serial_cpu_s", ser.cpu.Seconds())
		for _, s := range strategies {
			best := math.Inf(-1)
			var hit, cpuHit time.Duration
			c0 := cpuNow()
			start := time.Now()
			opt := parallel.Options{Procs: s.procs, Retry: type3Retry, Progress: func(st core.IterStats) {
				best = math.Max(best, st.Mu)
				if hit == 0 && best >= target {
					hit = time.Since(start)
					cpuHit = cpuNow() - c0
				}
			}}
			id := r.rec.begin(trace, "parallel.Run"+strings.ToUpper(s.name[:1])+s.name[1:], root)
			res, err := s.run(prob, opt)
			r.rec.end(id)
			wall := time.Since(start)
			cpu := cpuNow() - c0
			if err != nil {
				return fmt.Errorf("%s %s: %w", what, s.name, err)
			}
			// Type III reports the searcher's progress, not the store's;
			// the store's final best is what reached the target.
			if s.name == "type3" && hit == 0 && res.BestMu >= target {
				hit, cpuHit = wall, cpu
			}
			missed(s.name, hit, res.BestMu)
			problems = append(problems, r.checkBest(what+" "+s.name, prob, res.Best, res.BestMu)...)
			if s.name == "type1" && !sameBits(res.MuTrace, ser.res.MuTrace) {
				problems = append(problems, what+": Type I μ trace differs from the serial reference")
			}
			sumTarget += hit.Seconds()
			sumWall += wall.Seconds()
			sumCPUTarget += cpuHit.Seconds()
			sumCPU += cpu.Seconds()
			lowest = math.Min(lowest, res.BestMu)
			add(s.name+"_run_s", wall.Seconds())
			add(s.name+"_time_to_target_s", hit.Seconds())
			add(s.name+"_cpu_s", cpu.Seconds())
			add(s.name+"_best_mu", res.BestMu)
			add(s.name+"_virtual_s", res.VirtualTime.Seconds())
			mpiAcc[s.name] = append(mpiAcc[s.name], res.RankStats...)
			if res.Exchange != nil {
				exch = append(exch, res.Exchange)
			}
		}
		r.rec.end(root)
		r.done(problems)
		sweepTarget = append(sweepTarget, sumTarget)
		sweepWall = append(sweepWall, sumWall)
		sweepCPUTarget = append(sweepCPUTarget, sumCPUTarget)
		sweepCPU = append(sweepCPU, sumCPU)
		worstMu = append(worstMu, lowest)
		held = append(held[:0], prob, ser.res)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(held)
	r.setE2E("setup_s", median(setup), "s")
	r.setE2E("cpu_to_target_s", midmean(sweepCPUTarget), "s")
	r.setE2E("cpu_run_s", midmean(sweepCPU), "s")
	r.setE2E("best_mu", median(worstMu), "mu")
	r.setE2E("heap_mb", heap, "MiB")
	r.report["target_mu"] = target
	r.report["iterations_per_run"] = clusterIters
	r.report["sweeps"] = len(sweepWall)
	r.report["time_to_target_s"] = median(sweepTarget)
	r.report["run_s"] = median(sweepWall)
	for k, v := range per {
		r.report[k] = median(v)
	}
	if r.trace {
		acc.emit(r, r.rec.totals())
		emitMPI(r, mpiAcc)
		emitExchange(r, exch)
		if err := fillLayerDefaults(r); err != nil {
			return err
		}
	}
	return nil
}

// emitMPI sets the message-passing layer metrics from the ranks' own
// accounting, per strategy: traffic as counts per run; times per run as
// the slowest rank's compute and communication, reported as the median
// over runs, with the communication share as a per-layer metric.
func emitMPI(r *run, ranks map[string][]mpi.RankStats) {
	for _, s := range strategies {
		rs := ranks[s.name]
		var bytes, msgs float64
		var computeMax, commMax, share, imbalance []float64
		for lo := 0; lo+s.procs <= len(rs); lo += s.procs {
			var cmax, kmax, csum float64
			for _, st := range rs[lo : lo+s.procs] {
				bytes += float64(st.BytesSent)
				msgs += float64(st.MsgsSent)
				cmax = math.Max(cmax, st.Compute.Seconds())
				kmax = math.Max(kmax, st.Comm.Seconds())
				csum += st.Compute.Seconds()
			}
			computeMax = append(computeMax, cmax)
			commMax = append(commMax, kmax)
			share = append(share, ratio(kmax, kmax+cmax))
			imbalance = append(imbalance, ratio(cmax, csum/float64(s.procs)))
		}
		runs := float64(len(computeMax))
		p := "mpi." + s.name + "."
		r.setLayer(p+"bytes_sent", ratio(bytes, runs), "count")
		r.setLayer(p+"msgs_sent", ratio(msgs, runs), "count")
		r.setLayer(p+"comm_share", median(share), "ratio")
		r.report[p+"compute_s_max"] = median(computeMax)
		r.report[p+"comm_s_max"] = median(commMax)
		if s.name == "type2" {
			r.setLayer(p+"compute_imbalance", median(imbalance), "ratio")
		}
	}
}

// emitExchange sets the Type III exchange-protocol metrics (per run).
func emitExchange(r *run, ex []*parallel.ExchangeStats) {
	var posted, adopted, rejected, restores, epoch float64
	var rounds []float64
	for _, e := range ex {
		posted += float64(e.Posted)
		adopted += float64(e.Adopted)
		rejected += float64(e.Rejected)
		restores += float64(e.Restores)
		epoch += float64(e.StoreEpoch)
		for _, ns := range e.RoundNs {
			rounds = append(rounds, float64(ns)/1e3)
		}
	}
	n := float64(len(ex))
	r.setLayer("parallel.type3.posted", ratio(posted, n), "count")
	r.setLayer("parallel.type3.adopted", ratio(adopted, n), "count")
	r.setLayer("parallel.type3.rejected", ratio(rejected, n), "count")
	r.setLayer("parallel.type3.restores", ratio(restores, n), "count")
	r.setLayer("parallel.type3.store_epoch", ratio(epoch, n), "count")
	r.setLayer("parallel.type3.adopt_ratio", ratio(adopted, adopted+rejected), "ratio")
	r.report["parallel.type3.exchange_p50_us"] = median(rounds)
}
