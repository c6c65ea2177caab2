package jobs

import "testing"

// FuzzSpecNormalize hardens spec normalization, which every submission
// and every cluster worker's setup broadcast passes through: any field
// values must normalize or fail with an error, never panic, and a
// normalized spec must be a fixed point with a stable fingerprint.
func FuzzSpecNormalize(f *testing.F) {
	f.Add("s1196", "", "serial", "", 0, 0, uint64(0), 0.0, 0.0, 0, 0, "", "", 0, false, false, 0, false, false)
	f.Add("s3330", "", "TypeIII", "Delay+wire+Power", 40, 0, uint64(7), 0.0, 0.5, 0, 3, "TCP", "", 2, true, false, 1, false, true)
	f.Add("", "INPUT(a)\ng = NOT(a)\nOUTPUT(g)\n", "ii", "wire", 0, 0, uint64(9), 0.1, 0.0, 4, 0, "", "Random", 0, false, false, 0, true, false)
	f.Add("s1238", "", "sa", "", 10, 500, uint64(1), 0.3, 0.2, 0, 0, "sim", "", 0, false, true, 0, false, false)
	f.Fuzz(func(t *testing.T, circuit, bench, strategy, objectives string, maxIters, moves int, seed uint64,
		bias, targetMu float64, rows, procs int, transport, pattern string, retry int,
		diversify, syncExchange bool, maxRetries int, disableIncremental, includePlacement bool) {
		spec := Spec{
			Circuit: circuit, Bench: bench, Strategy: strategy, Objectives: objectives,
			MaxIters: maxIters, Moves: moves, Seed: seed, Bias: bias, TargetMu: targetMu,
			Rows: rows, Procs: procs, Transport: transport, Pattern: pattern, Retry: retry,
			Diversify: diversify, SyncExchange: syncExchange, MaxRetries: maxRetries,
			DisableIncremental: disableIncremental, IncludePlacement: includePlacement,
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", norm, err)
		}
		if again != norm {
			t.Fatalf("normalization is not a fixed point:\n%+v\n%+v", norm, again)
		}
		if again.Fingerprint() != norm.Fingerprint() {
			t.Fatalf("fingerprint changed on renormalization: %+v", norm)
		}
	})
}
