package telemetry

// EngineSnapshot is a per-run tally of the same counters the global
// registry aggregates process-wide. The engine accumulates it with
// plain (non-atomic) arithmetic on its own goroutine and copies it into
// Result.Telemetry, so library users and simevo-bench read identical
// numbers without scraping HTTP. JSON tags let simevo-bench embed the
// counters in BENCH_baseline.json.
type EngineSnapshot struct {
	Iterations uint64 `json:"iterations"`

	EvalNs   uint64 `json:"eval_ns"`
	SelectNs uint64 `json:"select_ns"`
	AllocNs  uint64 `json:"alloc_ns"`

	// Allocation sub-phase split: per-cell trial preparation (capture +
	// bucket build + CompileTrials), the vacancy scans themselves, and the
	// commit/bookkeeping tail. Sums to ~AllocNs.
	AllocPrepNs   uint64 `json:"alloc_prep_ns"`
	AllocScanNs   uint64 `json:"alloc_scan_ns"`
	AllocCommitNs uint64 `json:"alloc_commit_ns"`

	Evals            uint64 `json:"evals"`
	IncrementalEvals uint64 `json:"incremental_evals"`
	FullRebuilds     uint64 `json:"full_rebuilds"`
	DirtyNets        uint64 `json:"dirty_nets"`

	GoodnessHits   uint64 `json:"goodness_hits"`
	GoodnessMisses uint64 `json:"goodness_misses"`

	ScanVacancies     uint64 `json:"scan_vacancies"`
	ScanPrunedBBox    uint64 `json:"scan_pruned_bbox"`
	ScanPrunedSuffix  uint64 `json:"scan_pruned_suffix"`
	ScanBailedExact   uint64 `json:"scan_bailed_exact"`
	ScanScored        uint64 `json:"scan_scored"`
	ScanSkippedBucket uint64 `json:"scan_skipped_bucket"`
	ScanRowsVisited   uint64 `json:"scan_rows_visited"`

	// RefTrials counts the reference mode's (DisableIncremental) allocation
	// trials: every width-feasible vacancy scored from scratch, with no
	// pruning. Its incremental-mode counterpart is ScanScored.
	RefTrials uint64 `json:"ref_trials"`

	CostFull          uint64 `json:"cost_full"`
	CostDirty         uint64 `json:"cost_dirty"`
	CostDirtyFallback uint64 `json:"cost_dirty_fallback"`

	TimingUpdates   uint64 `json:"timing_updates"`
	TimingRebuilds  uint64 `json:"timing_rebuilds"`
	TimingConeCells uint64 `json:"timing_cone_cells"`

	// Congestion grid activity (zero unless the objective set includes
	// Congest): individual bin add/subtract writes and full grid rebuilds.
	CongestBinUpdates uint64 `json:"congest_bin_updates"`
	CongestRebuilds   uint64 `json:"congest_rebuilds"`
}

// Counters flattens the snapshot into a name → value map, matching the
// JSON field names. Handy for reports that iterate metrics generically.
func (s *EngineSnapshot) Counters() map[string]uint64 {
	return map[string]uint64{
		"iterations":          s.Iterations,
		"eval_ns":             s.EvalNs,
		"select_ns":           s.SelectNs,
		"alloc_ns":            s.AllocNs,
		"alloc_prep_ns":       s.AllocPrepNs,
		"alloc_scan_ns":       s.AllocScanNs,
		"alloc_commit_ns":     s.AllocCommitNs,
		"evals":               s.Evals,
		"incremental_evals":   s.IncrementalEvals,
		"full_rebuilds":       s.FullRebuilds,
		"dirty_nets":          s.DirtyNets,
		"goodness_hits":       s.GoodnessHits,
		"goodness_misses":     s.GoodnessMisses,
		"scan_vacancies":      s.ScanVacancies,
		"scan_pruned_bbox":    s.ScanPrunedBBox,
		"scan_pruned_suffix":  s.ScanPrunedSuffix,
		"scan_bailed_exact":   s.ScanBailedExact,
		"scan_scored":         s.ScanScored,
		"scan_skipped_bucket": s.ScanSkippedBucket,
		"scan_rows_visited":   s.ScanRowsVisited,
		"ref_trials":          s.RefTrials,
		"cost_full":           s.CostFull,
		"cost_dirty":          s.CostDirty,
		"cost_dirty_fallback": s.CostDirtyFallback,
		"timing_updates":      s.TimingUpdates,
		"timing_rebuilds":     s.TimingRebuilds,
		"timing_cone_cells":   s.TimingConeCells,
		"congest_bin_updates": s.CongestBinUpdates,
		"congest_rebuilds":    s.CongestRebuilds,
	}
}
