package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/service/api"
	"simevo/internal/service/jobs"
)

const (
	serveCircuit  = "s1196"
	serveIters    = 10 // SimE budget of every new job
	serveClients  = 1  // closed-loop clients; one, so a job's CPU time is its own
	serveWorkers  = 1  // manager pool size; see README.md on why not 2
	serveCheckers = 2  // goroutines rerunning jobs through the library
	serveSetups   = 25 // service start-ups per run; setup_s is their median
	serveMinJobs  = 1000
	resubmitShare = 4  // about one op in resubmitShare resubmits a finished spec
	recentSpecs   = 16 // resubmits pick among the client's last few new specs
	tracedChecks  = 40 // library checks stepped with spans in a traced run
)

// jobSample is one client operation against the service. It keeps only
// the figures the metrics and checks need, so the benchmark's own records
// weigh little in heap_mb next to the service's state.
type jobSample struct {
	seed     uint64
	resubmit bool
	origMu   float64 // resubmits: the μ the original job returned
	submit   time.Duration
	latency  time.Duration
	cpu      time.Duration // process CPU time from submit to the terminal event
	id       string
	ok       bool // ended done with a result
	bestMu   float64
	engineMs float64 // the job's runtime_ms
	cached   bool
	started  bool
	wait     time.Duration // started − created
	problems []string
}

// serveSpec is the spec of a new job.
func serveSpec(seed uint64) jobs.Spec {
	return jobs.Spec{Circuit: serveCircuit, Strategy: jobs.StrategySerial, MaxIters: serveIters, Seed: seed}
}

// record keeps the figures of a job view.
func (s *jobSample) record(v *jobs.View) {
	s.id = v.ID
	s.ok = v.State == jobs.StateDone && v.Result != nil
	if v.Result != nil {
		s.bestMu, s.engineMs, s.cached = v.Result.BestMu, v.Result.RuntimeMS, v.Result.Cached
	}
	if v.Started != nil {
		s.started, s.wait = true, v.Started.Sub(v.Created)
	}
}

// runServe: an in-process service (jobs.Manager behind api.Server over
// httptest) with one pool worker, driven closed-loop by one client that
// submits and waits for the SSE terminal event. About three in four jobs
// are new serial s1196 specs with distinct seeds, the rest resubmit a
// finished spec and must hit the result cache. With one job in flight,
// the process CPU time across a job is that job's cost through every
// layer: client, HTTP, manager, engine and event stream.
func runServe(r *run) error {
	target := r.pins.Targets[r.workload]
	var setups []float64
	var srv *httptest.Server
	var mgr *jobs.Manager
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.Close()
			mgr.Close()
		}
		t := cpuNow()
		mgr = jobs.NewManager(jobs.Options{Workers: serveWorkers})
		srv = httptest.NewServer(api.New(mgr).Handler())
		// First requests: health, then the catalog, which the server
		// builds on first use.
		for _, path := range []string{"/healthz", "/v1/benchmarks"} {
			if err := getOK(srv.URL + path); err != nil {
				return fmt.Errorf("service start-up: %w", err)
			}
		}
		setups = append(setups, (cpuNow() - t).Seconds())
	}

	loadStart, loadCPU := time.Now(), cpuNow()
	samples := make([][]jobSample, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples[c] = r.client(srv.URL, c)
		}(c)
	}
	wg.Wait()
	loadWall, loadCPU := time.Since(loadStart), cpuNow()-loadCPU
	heap := liveHeapMB()
	runtime.KeepAlive(mgr)
	srv.Close()
	mgr.Close()

	var all []jobSample
	for _, s := range samples {
		all = append(all, s...)
	}
	if err := r.verifyJobs(all, target); err != nil {
		return err
	}

	var lat, newLat, newCPU, best, submit, wait, engine, overhead []float64
	hits := 0
	for _, s := range all {
		r.done(s.problems)
		ms := float64(s.latency) / 1e6
		lat = append(lat, ms)
		if s.resubmit {
			if s.cached {
				hits++
			}
			continue
		}
		newLat = append(newLat, ms)
		newCPU = append(newCPU, s.cpu.Seconds())
		submit = append(submit, float64(s.submit)/1e6)
		if s.ok {
			best = append(best, s.bestMu)
			engine = append(engine, s.engineMs)
			overhead = append(overhead, ms-s.engineMs)
		}
		if s.started {
			wait = append(wait, float64(s.wait)/1e6)
		}
	}
	r.setE2E("setup_s", median(setups), "s")
	r.setE2E("cpu_to_target_s", midmean(newCPU), "s")
	r.setE2E("cpu_run_s", loadCPU.Seconds()/float64(len(all))*100, "s")
	r.setE2E("best_mu", median(best), "mu")
	r.setE2E("heap_mb", heap, "MiB")
	r.report["target_mu"] = target
	r.report["jobs"] = len(all)
	r.report["cache_hits"] = hits
	r.report["new_job_latency_p50_ms"] = median(newLat)
	r.report["wall_s_per_100_jobs"] = loadWall.Seconds() / float64(len(all)) * 100
	r.report["job_latency_p50_ms"] = median(lat)
	r.report["job_latency_p99_ms"] = quantile(lat, 0.99)
	r.report["api.submit_ms_p50"] = median(submit)
	r.report["jobs.queue_wait_ms_p50"] = median(wait)
	r.report["jobs.engine_ms_p50"] = median(engine)
	r.report["jobs.overhead_ms_p50"] = median(overhead)
	r.report["jobs.overhead_ms_p99"] = quantile(overhead, 0.99)
	if r.trace {
		base := median(newLat)
		r.setLayer("api.submit_share", ratio(median(submit), base), "ratio")
		r.setLayer("jobs.queue_wait_share", ratio(median(wait), base), "ratio")
		r.setLayer("jobs.engine_share", ratio(median(engine), base), "ratio")
		r.setLayer("jobs.overhead_share", ratio(median(overhead), base), "ratio")
		r.setLayer("jobs.cache_hit_ratio", ratio(float64(hits), float64(len(all))), "ratio")
		if err := fillLayerDefaults(r); err != nil {
			return err
		}
	}
	return nil
}

// client runs one closed-loop client until the window closes (and at
// least its share of serveMinJobs is done). Its operations follow from
// the run seed alone.
func (r *run) client(url string, c int) []jobSample {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var out []jobSample
	var recent []jobSample // finished new jobs, oldest first
	for i := uint64(0); r.more(0) || len(out) < serveMinJobs/serveClients; i++ {
		pick := r.subSeed(uint64(10+c), i)
		var s jobSample
		if len(recent) > 0 && pick%resubmitShare == 0 {
			orig := recent[len(recent)-1-int(pick>>32)%len(recent)]
			s = jobSample{seed: orig.seed, resubmit: true, origMu: orig.bestMu}
		} else {
			s.seed = r.subSeed(uint64(20+c), i)
		}
		trace := fmt.Sprintf("job-%d-%d", c, i)
		root := r.rec.begin(trace, "job", 0)
		r.submit(hc, url, &s, trace, root)
		r.rec.end(root)
		out = append(out, s)
		if !s.resubmit && len(s.problems) == 0 && s.ok {
			recent = append(recent, s)
			if len(recent) > recentSpecs {
				recent = recent[1:]
			}
		}
	}
	return out
}

// submit posts one spec and, unless the cache answers, follows the job's
// event stream to its terminal state, recording latency and problems.
func (r *run) submit(hc *http.Client, url string, s *jobSample, trace string, parent int) {
	body, err := json.Marshal(serveSpec(s.seed))
	if err != nil {
		s.problems = append(s.problems, fmt.Sprintf("encoding spec: %v", err))
		return
	}
	c0, start := cpuNow(), time.Now()
	defer func() { s.cpu = cpuNow() - c0 }()
	id := r.rec.begin(trace, "api.POST /v1/jobs", parent)
	resp, err := hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.rec.end(id)
		s.problems = append(s.problems, fmt.Sprintf("submit seed %d: %v", s.seed, err))
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.rec.end(id)
	s.submit = time.Since(start)
	var v jobs.View
	if err == nil {
		err = json.Unmarshal(raw, &v)
	}
	switch {
	case err != nil:
		s.problems = append(s.problems, fmt.Sprintf("submit seed %d: %s: %v", s.seed, resp.Status, err))
		return
	case resp.StatusCode/100 != 2:
		s.problems = append(s.problems, fmt.Sprintf("submit seed %d: %s %s", s.seed, resp.Status, raw))
		return
	case resp.StatusCode == http.StatusOK:
		// Served from the result cache: the POST round trip is the latency.
		s.latency = s.submit
		if !s.resubmit {
			s.problems = append(s.problems, fmt.Sprintf("new spec seed %d answered from the cache", s.seed))
		}
	default:
		if s.resubmit {
			s.problems = append(s.problems, fmt.Sprintf("resubmit seed %d missed the cache (%s)", s.seed, resp.Status))
		}
		id := r.rec.begin(trace, "api.stream", parent)
		err := follow(hc, url, &v)
		r.rec.end(id)
		s.latency = time.Since(start)
		if err != nil {
			s.problems = append(s.problems, fmt.Sprintf("job %s seed %d: %v", v.ID, s.seed, err))
			return
		}
	}
	s.record(&v)
	if !s.ok {
		s.problems = append(s.problems, fmt.Sprintf("job %s seed %d ended %s %s", v.ID, s.seed, v.State, v.Error))
		return
	}
	if s.resubmit && (!s.cached || math.Float64bits(s.bestMu) != math.Float64bits(s.origMu)) {
		s.problems = append(s.problems, fmt.Sprintf("resubmit seed %d: cached=%v μ %.17g, original μ %.17g",
			s.seed, s.cached, s.bestMu, s.origMu))
	}
}

// follow reads the job's server-sent events until the terminal one and
// decodes its view into v.
func follow(hc *http.Client, url string, v *jobs.View) error {
	resp, err := hc.Get(url + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "progress":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), v); err != nil {
				return fmt.Errorf("decoding %s event: %w", event, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a terminal event")
}

// verifyJobs reruns every new job's spec through the library (the same
// configuration jobs.Manager builds) and requires the identical best μ and
// the target. A traced run steps the first tracedChecks of them with spans
// for the engine-layer metrics.
func (r *run) verifyJobs(all []jobSample, target float64) error {
	acc := newLayerAcc()
	// One circuit per checker: netlist.Circuit fills its movable-cell
	// cache on first use without synchronization.
	ckts := make([]*netlist.Circuit, serveCheckers)
	for w := range ckts {
		ckt, genD, err := cpuTimed(func() (*netlist.Circuit, error) { return gen.Benchmark(serveCircuit) })
		if err != nil {
			return err
		}
		ckts[w] = ckt
		acc.genS = append(acc.genS, genD.Seconds())
	}
	var idx []int
	for i := range all {
		if !all[i].resubmit && all[i].ok {
			idx = append(idx, i)
		}
	}
	// The checkers share the jobs; only the first steps traced searches,
	// so the layer accumulator has a single writer.
	errs := make([]error, serveCheckers)
	var wg sync.WaitGroup
	for w := 0; w < serveCheckers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(idx); k += serveCheckers {
				traced := r.trace && w == 0 && k/serveCheckers < tracedChecks
				if err := r.verifyJob(&all[idx[k]], ckts[w], target, traced, acc); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if r.trace {
		acc.emit(r, r.rec.totals())
	}
	return nil
}

// verifyJob reruns one new job's spec through the library and records any
// mismatch on the sample.
func (r *run) verifyJob(s *jobSample, ckt *netlist.Circuit, target float64, traced bool, acc *layerAcc) error {
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = serveIters
	cfg.Seed = s.seed
	cfg.DisableMuTrace = !traced
	rec := r.rec
	if !traced {
		rec = nil
	}
	trace := "check-" + s.id
	root := rec.begin(trace, "check", 0)
	defer rec.end(root)
	id := rec.begin(trace, "core.NewProblem", root)
	prob, probD, err := cpuTimed(func() (*core.Problem, error) { return core.NewProblem(ckt, cfg) })
	rec.end(id)
	if err != nil {
		return err
	}
	pr := runPlain(prob, target)
	what := fmt.Sprintf("job %s seed %d", s.id, s.seed)
	if math.Float64bits(pr.res.BestMu) != math.Float64bits(s.bestMu) {
		s.problems = append(s.problems, fmt.Sprintf("%s: service μ %.17g, library μ %.17g", what, s.bestMu, pr.res.BestMu))
	}
	if pr.res.BestMu < target {
		s.problems = append(s.problems, fmt.Sprintf("%s: best μ %.4f missed target %.4f", what, pr.res.BestMu, target))
	}
	s.problems = append(s.problems, r.checkBest(what, prob, pr.res.Best, pr.res.BestMu)...)
	if traced {
		acc.problemS = append(acc.problemS, probD.Seconds())
		s.problems = append(s.problems, r.traceTwin(trace, root, prob, pr, acc, what)...)
	}
	return nil
}

// getOK issues a GET and requires 200.
func getOK(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}
