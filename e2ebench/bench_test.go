package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"simevo/internal/core"
	"simevo/internal/gen"
	"simevo/internal/parallel"
)

// engineCounters runs one stepped search and returns the deterministic
// work counters of every engine layer.
func engineCounters(t *testing.T, spec serialSpec, iters int, seed uint64) map[string]uint64 {
	t.Helper()
	spec.iters = iters
	prob, _, _, err := buildProblem(nil, "", 0, spec.build, spec.check, spec.config(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := runStepped(nil, "", 0, prob)
	tel := eng.Telemetry()
	return map[string]uint64{
		"iterations":          tel.Iterations,
		"scan_vacancies":      tel.ScanVacancies,
		"scan_scored":         tel.ScanScored,
		"scan_rows_visited":   tel.ScanRowsVisited,
		"dirty_nets":          tel.DirtyNets,
		"goodness_hits":       tel.GoodnessHits,
		"goodness_misses":     tel.GoodnessMisses,
		"cost_full":           tel.CostFull,
		"cost_dirty":          tel.CostDirty,
		"cost_dirty_fallback": tel.CostDirtyFallback,
		"timing_updates":      tel.TimingUpdates,
		"congest_bin_updates": tel.CongestBinUpdates,
	}
}

// TestSerialCountersRepeat runs each serial workload twice at a shortened
// budget: the work counters the per-layer metrics are built from must
// repeat exactly, or a counter change between commits would be noise.
func TestSerialCountersRepeat(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		spec  serialSpec
		iters int
	}{
		{"serial-s3330-wpdc", wpdcSpec(), 6},
		{"serial-10k-wp", tenKSpec(p.Circuit10k), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := engineCounters(t, c.spec, c.iters, 7)
			second := engineCounters(t, c.spec, c.iters, 7)
			if first["scan_vacancies"] == 0 || first["dirty_nets"] == 0 {
				t.Fatalf("counters not populated: %v", first)
			}
			for k, v := range first {
				if second[k] != v {
					t.Errorf("%s: %d then %d", k, v, second[k])
				}
			}
		})
	}
}

// TestTypeIITrafficRepeats checks that Type II's message and byte counts,
// the cluster workload's mpi metrics, repeat exactly for one seed.
func TestTypeIITrafficRepeats(t *testing.T) {
	ckt, err := gen.Benchmark("s3330")
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(ckt, clusterConfig(7, 6))
	if err != nil {
		t.Fatal(err)
	}
	traffic := func() (bytes, msgs int) {
		res, err := parallel.RunTypeII(prob, parallel.Options{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range res.RankStats {
			bytes += rs.BytesSent
			msgs += rs.MsgsSent
		}
		return bytes, msgs
	}
	b1, m1 := traffic()
	b2, m2 := traffic()
	if b1 == 0 || m1 == 0 {
		t.Fatalf("no Type II traffic recorded: %d bytes, %d msgs", b1, m1)
	}
	if b1 != b2 || m1 != m2 {
		t.Errorf("Type II traffic %d B / %d msgs, then %d B / %d msgs", b1, m1, b2, m2)
	}
}

// TestSteppedMatchesRun pins the traced path to the engine's own loop:
// stepping EvaluateCosts → ComputeGoodness → SelectAndAllocate must give
// Engine.RunContext's μ trace bit for bit.
func TestSteppedMatchesRun(t *testing.T) {
	spec := wpdcSpec()
	spec.iters = 5
	prob, _, _, err := buildProblem(nil, "", 0, spec.build, nil, spec.config(3))
	if err != nil {
		t.Fatal(err)
	}
	plain := runPlain(prob, 1)
	eng, _ := runStepped(nil, "", 0, prob)
	if !sameBits(eng.MuTrace(), plain.res.MuTrace) {
		t.Fatalf("stepped μ trace %v, RunContext %v", eng.MuTrace(), plain.res.MuTrace)
	}
}

// TestSelfTime checks the self-time arithmetic: a parent's self time is
// its duration minus the union of its children's intervals.
func TestSelfTime(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 1, Name: "core.search", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.EvaluateCosts", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.EvaluateCosts", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "core.SelectAndAllocate", Start: 60, End: 90},
	}}
	st := rec.selfTimes()
	if got := st["core.search"].SelfMs * 1e6; got != 30 {
		t.Errorf("search self = %v ns, want 30", got)
	}
	if got := st["layer:core"].Calls; got != 4 {
		t.Errorf("core layer calls = %d, want 4", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// Quarters rounded down: of 9 values the lowest and highest 2 go.
	if got := midmean([]float64{100, 1, 5, 4, 3, 2, 6, 7, -50}); got != 4 {
		t.Errorf("midmean = %v, want 4", got)
	}
	if got := midmean([]float64{3}); got != 3 {
		t.Errorf("midmean of one = %v, want 3", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the
// same workloads (each why naming its pinned target μ), end-to-end metrics
// and per-layer metrics, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s, program has %s", i, w.Name, workloads[i].name)
		}
		if want := fmt.Sprintf("target mu %.2f", p.Targets[w.Name]); !strings.Contains(w.Why, want) {
			t.Errorf("%s: why %q does not name %q", w.Name, w.Why, want)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s], program has %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}
