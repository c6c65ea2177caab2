package main

import (
	"fmt"
	"strings"
)

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit, in BENCHMARK.json order. Every workload prints all of them: a
// layer a workload does not run reads 0, which is why layer-specific
// times appear as shares of their base rather than as times.
var layerMetrics = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"core.new_problem_s", "s"},
	{"core.evaluate_costs_ms_per_iter", "ms"},
	{"core.goodness_ms_per_iter", "ms"},
	{"core.select_alloc_ms_per_iter", "ms"},
	{"core.select_ms_per_iter", "ms"},
	{"core.alloc_prep_ms_per_iter", "ms"},
	{"core.alloc_scan_ms_per_iter", "ms"},
	{"core.alloc_commit_ms_per_iter", "ms"},
	{"core.alloc_scan_share", "ratio"},
	{"core.evaluate_share", "ratio"},
	{"core.dirty_nets_per_iter", "count"},
	{"core.goodness_hit_ratio", "ratio"},
	{"wire.vacancies_visited_per_iter", "count"},
	{"wire.scored_per_iter", "count"},
	{"wire.scored_per_visited", "ratio"},
	{"wire.pruned_share", "ratio"},
	{"wire.rows_visited_per_iter", "count"},
	{"cost.wire_us_per_iter", "us"},
	{"cost.power_us_per_iter", "us"},
	{"cost.delay_share", "ratio"},
	{"cost.congestion_share", "ratio"},
	{"cost.dirty_calls", "count"},
	{"cost.dirty_fallback_calls", "count"},
	{"timing.updates", "count"},
	{"timing.rebuilds", "count"},
	{"congest.bin_updates_per_iter", "count"},
	{"mpi.type1.bytes_sent", "count"},
	{"mpi.type1.msgs_sent", "count"},
	{"mpi.type1.comm_share", "ratio"},
	{"mpi.type2.bytes_sent", "count"},
	{"mpi.type2.msgs_sent", "count"},
	{"mpi.type2.comm_share", "ratio"},
	{"mpi.type2.compute_imbalance", "ratio"},
	{"mpi.type3.bytes_sent", "count"},
	{"mpi.type3.msgs_sent", "count"},
	{"mpi.type3.comm_share", "ratio"},
	{"parallel.type3.posted", "count"},
	{"parallel.type3.adopted", "count"},
	{"parallel.type3.rejected", "count"},
	{"parallel.type3.restores", "count"},
	{"parallel.type3.store_epoch", "count"},
	{"parallel.type3.adopt_ratio", "ratio"},
	{"api.submit_share", "ratio"},
	{"jobs.queue_wait_share", "ratio"},
	{"jobs.engine_share", "ratio"},
	{"jobs.overhead_share", "ratio"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

// fillLayerDefaults completes r.layer: metrics of layers the workload did
// not run read 0. A time unit must have been measured — every workload
// runs the layers those belong to — so a missing one is a bug.
func fillLayerDefaults(r *run) error {
	for _, m := range layerMetrics {
		got, ok := r.layer[m.name]
		switch {
		case !ok && (m.unit == "s" || m.unit == "ms" || m.unit == "us"):
			return fmt.Errorf("per-layer time %s was not measured", m.name)
		case !ok:
			r.layer[m.name] = metric{0, m.unit}
		case got.Unit != m.unit:
			return fmt.Errorf("per-layer %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range r.layer {
		if !knownLayer(name) {
			return fmt.Errorf("per-layer metric %s is not listed", name)
		}
	}
	return nil
}

func knownLayer(name string) bool {
	for _, m := range layerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// layerMoves names, per span layer, the end-to-end metric its self time
// should move and the workload where that layer does most of the work.
var layerMoves = map[string]string{
	"gen":      "setup_s (serial-10k-wp)",
	"core":     "cpu_to_target_s, cpu_run_s (serial-10k-wp, serial-s3330-wpdc); cpu_run_s (cluster-s3330-wp)",
	"parallel": "cpu_run_s, cpu_to_target_s (cluster-s3330-wp)",
	"api":      "cpu_to_target_s, cpu_run_s (serve-s1196)",
	"check":    "none: correctness checks, outside every timed metric",
}

// layerReport gives each span layer's self time next to the end-to-end
// metric it should move, as a share of the traced total self time.
func layerReport(self map[string]selfStat) map[string]any {
	total := 0.0
	for k, st := range self {
		if strings.HasPrefix(k, "layer:") {
			total += st.SelfMs
		}
	}
	out := map[string]any{}
	for k, st := range self {
		layer, ok := strings.CutPrefix(k, "layer:")
		if !ok {
			continue
		}
		moves := layerMoves[layer]
		if moves == "" {
			moves = "none: operation root span"
		}
		out[layer] = map[string]any{
			"self_ms":        st.SelfMs,
			"share_of_total": ratio(st.SelfMs, total),
			"moves":          moves,
		}
	}
	return out
}
