package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span names. A run span covers Optimizer.Run; eval and prepare spans are
// its children (Problem.Evaluate and Problem.Prepare calls); serve spans
// cover the worker's POST /eval requests and parent to the prepare span in
// flight; open covers evalcache.Open.
const (
	spanRun     = "run"
	spanEval    = "eval"
	spanPrepare = "prepare"
	spanServe   = "serve"
	spanOpen    = "open"
)

// span is one timed call, kept in memory and written out when the benchmark
// ends. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// First marks an eval span that is the run's first call for its design.
	First bool `json:"first,omitempty"`
	// Status is a serve span's HTTP status.
	Status int `json:"status,omitempty"`
}

// recorder collects spans from the benchmark's own code around calls into the
// program. A nil recorder records nothing, so untraced runs share the code.
// Span IDs start at 1; parent 0 means a root span.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	run   string // label of the run in progress (runs are serial)
	prep  int    // the prepare span in progress, parent of serve spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name, run string, parent int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Run: run, Start: t, End: -1})
	return len(r.spans)
}

// finish closes span id, letting set fill in its attributes.
func (r *recorder) finish(id int, set func(*span)) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = t
	if set != nil {
		set(s)
	}
}

func (r *recorder) end(id int) { r.finish(id, nil) }

func (r *recorder) beginRun(label string) int {
	if r == nil {
		return 0
	}
	id := r.begin(spanRun, label, 0)
	r.mu.Lock()
	r.run = label
	r.mu.Unlock()
	return id
}

func (r *recorder) endEval(id int, first bool) {
	r.finish(id, func(s *span) { s.First = first })
}

func (r *recorder) beginPrepare(label string, parent int) int {
	if r == nil {
		return 0
	}
	id := r.begin(spanPrepare, label, parent)
	r.mu.Lock()
	r.prep = id
	r.mu.Unlock()
	return id
}

func (r *recorder) endPrepare(id int) {
	if r == nil {
		return
	}
	r.end(id)
	r.mu.Lock()
	r.prep = 0
	r.mu.Unlock()
}

// wrapServe times the worker's POST /eval requests; other routes (health
// probes) pass through untimed. A nil recorder returns next unchanged.
func (r *recorder) wrapServe(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/eval" {
			next.ServeHTTP(w, req)
			return
		}
		r.mu.Lock()
		run, parent := r.run, r.prep
		r.mu.Unlock()
		id := r.begin(spanServe, run, parent)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, req)
		r.finish(id, func(s *span) { s.Status = sw.status })
	})
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the per-layer times from one traced campaign's spans
// (those with ID > from). A layer's self time is its span's duration minus
// the union of its children's intervals.
func spanMetrics(all []span, from int) map[string]float64 {
	var runs []span
	kids := map[int][]span{}
	var serveIvs []interval
	var serveMs []float64
	var shed, loadNs int64
	n := 0
	for _, s := range all {
		if s.ID <= from {
			continue
		}
		n++
		switch s.Name {
		case spanRun:
			runs = append(runs, s)
		case spanEval, spanPrepare:
			kids[s.Parent] = append(kids[s.Parent], s)
		case spanServe:
			serveIvs = append(serveIvs, interval{s.Start, s.End})
			serveMs = append(serveMs, float64(s.End-s.Start)/1e6)
			if s.Status == http.StatusTooManyRequests {
				shed++
			}
		case spanOpen:
			loadNs += s.End - s.Start
		}
	}
	var wallNs, selfNs, dseNs, evalBusyNs, evalSumNs, prepNs int64
	var propose, designMs []float64
	calls := 0
	for _, r := range runs {
		var both, evals, preps []interval
		var starts []int64
		for _, k := range kids[r.ID] {
			iv := interval{k.Start, k.End}
			both = append(both, iv)
			if k.Name == spanEval {
				evals = append(evals, iv)
				evalSumNs += k.End - k.Start
				calls++
				if k.First {
					designMs = append(designMs, float64(k.End-k.Start)/1e6)
				}
			} else {
				preps = append(preps, iv)
				starts = append(starts, k.Start)
			}
		}
		wall := r.End - r.Start
		self := wall - covered(both, r.Start, r.End)
		wallNs += wall
		selfNs += self
		if strings.HasPrefix(r.Run, "ExplainableDSE") {
			dseNs += self
		}
		evalBusyNs += covered(evals, r.Start, r.End)
		prepNs += covered(preps, r.Start, r.End)
		// One proposal per batch: the optimizer's self time since the
		// previous batch started (since the run started, for the first).
		lo := r.Start
		for _, hi := range starts {
			propose = append(propose, float64(hi-lo-covered(both, lo, hi))/1e6)
			lo = hi
		}
	}
	proposeP95, proposePct := tailPercentile(propose, 0.95)
	designP95, designPct := tailPercentile(designMs, 0.95)
	serveP95, servePct := tailPercentile(serveMs, 0.95)
	m := map[string]float64{
		"opt.self_s":             float64(selfNs) / 1e9,
		"opt.propose_ms_p50":     median(propose),
		"opt.propose_ms_p95":     proposeP95,
		"opt.propose_ms_p95_pct": proposePct,
		"opt.proposals":          float64(len(propose)),
		"dse.self_s":             float64(dseNs) / 1e9,
		"eval.busy_s":            float64(evalBusyNs) / 1e9,
		"eval.design_ms_p50":     median(designMs),
		"eval.design_ms_p95":     designP95,
		"eval.design_ms_p95_pct": designPct,
		"eval.design_samples":    float64(len(designMs)),
		"eval.calls":             float64(calls),
		"fleet.prepare_s":        float64(prepNs) / 1e9,
		"serve.eval_busy_s":      float64(covered(serveIvs, 0, 1<<62)) / 1e9,
		"serve.eval_ms_p50":      median(serveMs),
		"serve.eval_ms_p95":      serveP95,
		"serve.eval_ms_p95_pct":  servePct,
		"serve.requests":         float64(len(serveMs)),
		"serve.eval_shed":        float64(shed),
		"evalcache.load_s":       float64(loadNs) / 1e9,
		"trace.spans":            float64(n),
	}
	if wallNs > 0 {
		m["opt.self_frac"] = float64(selfNs) / float64(wallNs)
	}
	if evalBusyNs > 0 {
		m["eval.parallelism"] = float64(evalSumNs) / float64(evalBusyNs)
	}
	m["fleet.rpc_overhead_s"] = m["fleet.prepare_s"] - m["serve.eval_busy_s"]
	return m
}
