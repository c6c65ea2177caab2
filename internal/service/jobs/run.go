package jobs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"simevo/internal/core"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/metaheur"
	"simevo/internal/netlist"
	"simevo/internal/parallel"
	"simevo/internal/power"
	"simevo/internal/transport"
)

// clusterAcquireTimeout bounds how long a TCP-transport job waits for
// enough registered workers before failing.
const clusterAcquireTimeout = 30 * time.Second

// clusterCancelGrace is how long a cancelled TCP-transport job may keep
// winding down cooperatively before its group is interrupted.
const clusterCancelGrace = 30 * time.Second

// catalogStatics holds one lazily built core.Statics per catalog circuit,
// shared by every job of the process that names that circuit: the
// circuit, its levelization, its activities and its attach tables are
// seed-independent, so only the reference costs and lower bounds (and
// every engine) are built per job. A circuit's entry is built by the
// first job that names it, never at start-up, and is never evicted — the
// catalog is five small circuits. Uploaded netlists build fresh per job.
var catalogStatics = func() map[string]func() (*core.Statics, error) {
	m := make(map[string]func() (*core.Statics, error))
	for _, name := range gen.Catalog() {
		m[name] = sync.OnceValues(func() (*core.Statics, error) {
			ckt, err := gen.Benchmark(name)
			if err != nil {
				return nil, err
			}
			return core.NewStatics(ckt, power.DefaultConfig())
		})
	}
	return m
}()

// specConfig is the SimE configuration a normalized spec implies.
func specConfig(spec Spec) core.Config {
	cfg := core.DefaultConfig(spec.objectives())
	if spec.MaxIters > 0 {
		// SA specs carry no iteration bound (they budget moves); the
		// config default satisfies core validation and is never reached.
		cfg.MaxIters = spec.MaxIters
	}
	cfg.Seed = spec.Seed
	cfg.Bias = spec.Bias
	cfg.TargetMu = spec.TargetMu
	cfg.NumRows = spec.Rows
	cfg.DisableIncremental = spec.DisableIncremental
	// Server jobs stream progress instead of reading the trace, and
	// long-running jobs must not accumulate one μ sample per iteration
	// indefinitely — recording is off here (it stays on by default for
	// library and benchmark use).
	cfg.DisableMuTrace = true
	return cfg
}

// buildProblem assembles the problem of a normalized spec: local jobs,
// RunSpecOn and worker ServeRank all build through here.
func buildProblem(spec Spec) (*core.Problem, error) {
	cfg := specConfig(spec)
	if spec.Circuit != "" {
		statics, ok := catalogStatics[spec.Circuit]
		if !ok {
			return nil, fmt.Errorf("jobs: unknown circuit %q (have %v)", spec.Circuit, gen.Catalog())
		}
		s, err := statics()
		if err != nil {
			return nil, err
		}
		return s.NewProblem(cfg)
	}
	ckt, err := netlist.ParseBench("upload", strings.NewReader(spec.Bench))
	if err != nil {
		return nil, fmt.Errorf("jobs: parsing uploaded bench: %w", err)
	}
	return core.NewProblem(ckt, cfg)
}

// placementRows renders a placement as row-by-row cell names.
func placementRows(p *layout.Placement, ckt *netlist.Circuit) [][]string {
	if p == nil {
		return nil
	}
	rows := make([][]string, p.NumRows())
	for r := range rows {
		ids := p.Row(r)
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = ckt.Cells[id].Name
		}
		rows[r] = names
	}
	return rows
}

// runSpec executes a normalized spec to completion (or cancellation),
// reporting progress through the callback. On cancellation the
// best-so-far result is returned with a nil error. Parallel specs with the
// TCP transport are dispatched onto registered workers from the hub; every
// other spec runs in-process.
func runSpec(ctx context.Context, spec Spec, progress core.Progress, hub *transport.Hub) (*Result, error) {
	if spec.Transport == TransportTCP {
		if hub == nil {
			return nil, fmt.Errorf("jobs: tcp transport requested but the service has no cluster listener")
		}
		if hub.Workers() == 0 {
			// No workers have joined (yet, or at all): rather than wait out
			// the acquire timeout and fail, degrade to the in-process
			// simulated cluster — same strategy, same spec, flagged so the
			// caller knows where it ran.
			res, err := runSpecLocal(ctx, spec, progress)
			if res != nil {
				res.TransportFallback = true
			}
			return res, err
		}
		acquireCtx, cancel := context.WithTimeout(ctx, clusterAcquireTimeout)
		group, err := hub.Acquire(acquireCtx, spec.Procs-1)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("jobs: acquiring %d cluster workers: %w", spec.Procs-1, err)
		}
		defer group.Release()
		// Cancellation is cooperative first: an out-of-band cancel frame
		// tells every worker immediately, and the master winds the run down
		// between iterations keeping the best-so-far result. A master
		// wedged in a blocking receive (stalled or failed worker) cannot
		// observe the context, so past a grace period the group is
		// interrupted outright — the job fails but the pool slot is freed.
		finished := make(chan struct{})
		defer close(finished)
		stop := context.AfterFunc(ctx, func() {
			group.Cancel()
			select {
			case <-finished:
			case <-time.After(clusterCancelGrace):
				group.Interrupt(ctx.Err())
			}
		})
		defer stop()
		return RunSpecOn(ctx, group, spec, progress)
	}
	return runSpecLocal(ctx, spec, progress)
}

// runSpecLocal executes a spec in-process: serial and metaheuristic
// strategies directly, parallel strategies on the simulated cluster.
func runSpecLocal(ctx context.Context, spec Spec, progress core.Progress) (*Result, error) {
	prob, err := buildProblem(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	switch spec.Strategy {
	case StrategySerial:
		eng := prob.NewEngine(0)
		res := eng.RunContext(ctx, progress)
		return &Result{
			BestMu:    res.BestMu,
			Wire:      res.BestCosts.Wire,
			Power:     res.BestCosts.Power,
			Delay:     res.BestCosts.Delay,
			Congest:   res.BestCosts.Congest,
			Iters:     res.Iters,
			BestIter:  res.BestIter,
			RuntimeMS: msSince(start),
			Placement: placementRows(res.Best, prob.Ckt),
		}, nil

	case StrategyTypeI, StrategyTypeII, StrategyTypeIII:
		opt := specOptions(ctx, spec, progress)
		var res *parallel.Result
		switch spec.Strategy {
		case StrategyTypeI:
			res, err = parallel.RunTypeI(prob, opt)
		case StrategyTypeII:
			res, err = parallel.RunTypeII(prob, opt)
		default:
			res, err = parallel.RunTypeIII(prob, opt)
		}
		if err != nil {
			return nil, err
		}
		return convertParallel(res, prob, start), nil

	case StrategySA, StrategyGA, StrategyTS:
		var res *metaheur.Result
		switch spec.Strategy {
		case StrategySA:
			res, err = metaheur.RunSAContext(ctx, prob,
				metaheur.SAConfig{Moves: spec.Moves, Seed: spec.Seed}, progress)
		case StrategyGA:
			res, err = metaheur.RunGAContext(ctx, prob,
				metaheur.GAConfig{Generations: spec.MaxIters, Seed: spec.Seed}, progress)
		default:
			res, err = metaheur.RunTSContext(ctx, prob,
				metaheur.TSConfig{Iters: spec.MaxIters, Seed: spec.Seed}, progress)
		}
		if err != nil {
			return nil, err
		}
		return &Result{
			BestMu:    res.BestMu,
			Wire:      res.BestCosts.Wire,
			Power:     res.BestCosts.Power,
			Iters:     res.Moves,
			RuntimeMS: msSince(start),
			Placement: placementRows(res.Best, prob.Ckt),
		}, nil
	}
	return nil, fmt.Errorf("jobs: unhandled strategy %q", spec.Strategy)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
