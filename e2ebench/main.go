// Command e2ebench is simevo's end-to-end benchmark. Each workload drives
// the public entry points of one slice of the stack from outside —
// circuit generation, core.NewProblem, the SimE engine operators, the
// parallel strategies on the in-process virtual-time cluster, and the job
// service behind its HTTP API — checks every result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// The line before it is a report: the host (GOMAXPROCS, nproc, Go
// version, commit), the workload-specific metrics, the first failure
// messages, and for traced runs each layer's self time. See README.md for
// the workloads, the metric → layer map, and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics lists the end-to-end metrics every workload reports (see
// README.md for what each means on each workload). The times are process
// CPU seconds (cputime.go); the wall-clock figures go to the report line.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_to_target_s", "s"},
	{"cpu_run_s", "s"},
	{"best_mu", "mu"},
	{"heap_mb", "MiB"},
}

// workload is one benchmark scenario. run measures for r.window, counting
// every operation (a search, a sweep of strategy runs, or a service job)
// through r.done, and fills r.e2e (untraced) or r.layer (traced).
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"serial-s3330-wpdc", runSerialWPDC},
	{"serial-10k-wp", runSerial10k},
	{"cluster-s3330-wp", runCluster},
	{"serve-s1196", runServe},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	window   time.Duration // measurement window (--seconds)
	start    time.Time
	trace    bool
	pins     pins
	rec      *recorder // nil when untraced

	attempted, failed int
	failures          []string

	// Row-width bound audit of every checked best placement; mu guards it
	// (the serve workload checks jobs from two goroutines).
	mu                        sync.Mutex
	widthChecked, widthBroken int
	widthExcess               float64 // worst WidthViolation (share of w_avg)

	e2e    map[string]metric // --trace 0 result metrics
	layer  map[string]metric // --trace 1 result metrics
	report map[string]any    // workload detail for the report line
}

// maxFailureNotes bounds the failure messages kept for the report.
const maxFailureNotes = 8

// done records one finished operation and the check failures it hit.
func (r *run) done(problems []string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, p)
		}
	}
}

// more reports whether the measurement window has time left for another
// operation expected to take about est.
func (r *run) more(est time.Duration) bool {
	return time.Since(r.start)+est <= r.window
}

// subSeed derives the i-th search seed of stream from the run seed
// (splitmix64 finalizer), so one --seed fixes every input of the run.
func (r *run) subSeed(stream, i uint64) uint64 {
	z := r.seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + i + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *run) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{v, unit}
}

func (r *run) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	r := &run{
		workload: w.name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		pins:     p,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		report:   map[string]any{},
	}
	if r.trace {
		r.rec = newRecorder()
	}
	r.start = time.Now()
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: no operation fit in the window\n", w.name)
		os.Exit(1)
	}

	for _, e := range e2eMetrics {
		// A zero is a benchmark bug unless operations failed (every search
		// missing its target leaves no time to target).
		if got, ok := r.e2e[e.name]; !ok || got.Unit != e.unit || (got.Value == 0 && r.failed == 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: end-to-end metric %s = %+v, want a non-zero value in %s\n", w.name, e.name, got, e.unit)
			os.Exit(1)
		}
	}
	metrics := r.e2e
	if r.trace {
		metrics = r.layer
		path, err := r.rec.write(w.name, r.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing trace:", err)
			os.Exit(1)
		}
		r.report["trace_file"] = path
		self := r.rec.selfTimes()
		r.report["self_ms"] = self
		r.report["layers"] = layerReport(self)
	}
	r.report["host"] = map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	r.report["workload"] = w.name
	r.report["seed"] = r.seed
	r.report["wall_s"] = time.Since(r.start).Seconds()
	if r.widthChecked > 0 {
		r.report["width_bound"] = map[string]any{
			"checked": r.widthChecked, "broken": r.widthBroken, "max_excess_share": r.widthExcess,
		}
	}
	if len(r.failures) > 0 {
		r.report["failures"] = r.failures
	}
	emit(map[string]any{"report": r.report})
	emit(outcome{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
}

// emit prints v as one JSON line.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// commit names the source revision measured: BENCH_COMMIT (run.sh fills
// it from git when the checkout is a repository) or "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// median returns the middle value (mean of the two middle values for even
// counts); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// midmean returns the interquartile mean: the mean of the values left
// after dropping the lowest and the highest quarter (rounded down); 0 for
// an empty slice. Unlike the median it does not jump by a whole
// iteration's time when the middle sample moves to its neighbour.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	s = s[q : len(s)-q]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live heap in MiB. Call it
// while the run's state is still referenced.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
