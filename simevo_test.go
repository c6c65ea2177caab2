package simevo_test

import (
	"math"
	"strings"
	"testing"

	"simevo"
)

func TestBenchmarkCatalog(t *testing.T) {
	names := simevo.BenchmarkNames()
	if len(names) != 5 {
		t.Fatalf("catalog has %d circuits, want 5", len(names))
	}
	wantCells := map[string]int{
		"s1196": 561, "s1238": 540, "s1488": 667, "s1494": 661, "s3330": 1561,
	}
	for _, n := range names {
		ckt, err := simevo.Benchmark(n)
		if err != nil {
			t.Fatalf("Benchmark(%s): %v", n, err)
		}
		if got := ckt.NumCells(); got != wantCells[n] {
			t.Errorf("%s: %d cells, want %d", n, got, wantCells[n])
		}
	}
}

func TestBenchRoundTripThroughPublicAPI(t *testing.T) {
	ckt := simevo.MustBenchmark("s1238")
	var sb strings.Builder
	if err := ckt.WriteBench(&sb); err != nil {
		t.Fatal(err)
	}
	again, err := simevo.LoadBench("s1238-rt", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ckt.Stats(), again.Stats()
	a.Name, b.Name = "", ""
	if a != b {
		t.Fatalf("round-trip changed stats:\n%+v\n%+v", a, b)
	}
}

func TestGeneratePublic(t *testing.T) {
	ckt, err := simevo.Generate(simevo.GenerateParams{
		Name: "custom", Gates: 100, DFFs: 5, PIs: 6, POs: 6, Depth: 8, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckt.NumCells() != 105 {
		t.Fatalf("NumCells = %d, want 105", ckt.NumCells())
	}
}

func TestSerialRunPublicAPI(t *testing.T) {
	ckt := simevo.MustBenchmark("s1238")
	cfg := simevo.DefaultConfig(simevo.WirePower)
	cfg.MaxIters = 25
	cfg.Seed = 11
	placer, err := simevo.NewPlacer(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0 || res.BestMu > 1 {
		t.Fatalf("μ = %v", res.BestMu)
	}
	if res.Runtime <= 0 {
		t.Fatal("runtime not measured")
	}
	if res.BestCosts.Wire >= placer.InitialCosts().Wire {
		t.Fatal("no wirelength improvement over initial placement")
	}
}

func TestParallelRunsPublicAPI(t *testing.T) {
	ckt := simevo.MustBenchmark("s1238")
	cfg := simevo.DefaultConfig(simevo.WirePower)
	cfg.MaxIters = 8
	cfg.Seed = 11
	placer, err := simevo.NewPlacer(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	no := false
	net := simevo.IdealNet()
	base := simevo.ParallelOptions{Procs: 3, Net: &net, MeasureCompute: &no}

	t1, err := placer.RunTypeI(base)
	if err != nil {
		t.Fatalf("Type I: %v", err)
	}
	serial, err := placer.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if t1.BestMu != serial.BestMu {
		t.Fatalf("Type I μ %v != serial %v (trajectory invariant)", t1.BestMu, serial.BestMu)
	}

	o2 := base
	o2.Pattern = simevo.RandomRows(7)
	t2, err := placer.RunTypeII(o2)
	if err != nil {
		t.Fatalf("Type II: %v", err)
	}
	if t2.BestMu <= 0 {
		t.Fatal("Type II produced no quality")
	}

	o3 := base
	o3.Retry = 3
	t3, err := placer.RunTypeIII(o3)
	if err != nil {
		t.Fatalf("Type III: %v", err)
	}
	if t3.BestMu <= 0 {
		t.Fatal("Type III produced no quality")
	}
}

func TestProfileSharesExposed(t *testing.T) {
	// The paper's Section 4 profile (allocation ≈ 98%) describes from-
	// scratch trial evaluation — the DisableIncremental reference mode.
	// The default incremental engine deliberately breaks this profile;
	// cmd/simevo-bench -baseline records both sides.
	ckt := simevo.MustBenchmark("s1238")
	cfg := simevo.DefaultConfig(simevo.WirePower)
	cfg.MaxIters = 10
	cfg.DisableIncremental = true
	placer, err := simevo.NewPlacer(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	// The wall-clock split is exposed (its values depend on the host, so
	// only its shape is checked); the dominance itself is asserted on the
	// deterministic trial counter: scored trials per iteration against the
	// one goodness evaluation per movable cell.
	eval, sel, alloc := res.Profile.Shares()
	if sum := eval + sel + alloc; eval < 0 || sel < 0 || alloc < 0 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("profile shares eval %v select %v alloc %v do not partition the run", eval, sel, alloc)
	}
	cells := uint64(ckt.NumCells()) // movable cells
	if perIter := res.Telemetry.RefTrials / uint64(res.Iters); perIter < 2*cells {
		t.Fatalf("allocation scored %d trials/iter, want dominant: ≥ 2×%d movable cells (paper Section 4)",
			perIter, cells)
	}
}

func TestLoadBenchRejectsGarbage(t *testing.T) {
	if _, err := simevo.LoadBench("bad", strings.NewReader("not a bench file")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMetricsPublicAPI(t *testing.T) {
	ckt := simevo.MustBenchmark("s1238")
	cfg := simevo.DefaultConfig(simevo.WirePower)
	cfg.MaxIters = 15
	placer, err := simevo.NewPlacer(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	cong := simevo.EstimateCongestion(res.Best, 8)
	if cong.Peak <= 0 {
		t.Fatal("no congestion demand")
	}
	rows := simevo.ComputeRowStats(res.Best)
	if rows.Rows <= 0 || rows.AvgWidth <= 0 {
		t.Fatalf("row stats malformed: %+v", rows)
	}
	wl := simevo.WirelengthByEstimator(res.Best)
	if wl["steiner"] < wl["hpwl"] || wl["rmst"] < wl["hpwl"] {
		t.Fatalf("estimator ordering violated: %+v", wl)
	}
}
