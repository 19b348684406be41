package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/exp"
	"xdse/internal/obs"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric, end-to-end first. README.md describes each.
var (
	endToEndUnits = map[string]string{
		"campaign_s": "s", "cpu_s": "s", "setup_s": "s", "alloc_mb": "MB", "peak_rss_mb": "MB",
	}
	perLayerUnits = map[string]string{
		"opt.self_s": "s", "opt.self_frac": "fraction", "opt.propose_ms_p50": "ms", "opt.propose_ms_p95": "ms",
		"opt.proposals": "count", "dse.self_s": "s",
		"search.batches": "count", "search.points_per_batch": "count", "search.batch_s": "s",
		"eval.busy_s": "s", "eval.design_ms_p50": "ms", "eval.design_ms_p95": "ms", "eval.design_samples": "count",
		"eval.calls": "count", "eval.designs": "count", "eval.memo_hits": "count", "eval.layer_lookups": "count",
		"eval.layer_hit_frac": "fraction", "eval.parallelism": "x",
		"mapping.searches": "count", "mapping.trials": "count", "mapping.lb_pruned_frac": "fraction",
		"mapping.warm_probes": "count", "mapping.warm_fallbacks": "count", "perf.tier1_calls": "count",
		"perf.tier2_calls": "count", "mapping.ns_per_trial": "ns",
		"evalcache.load_s": "s", "evalcache.records_loaded": "count", "evalcache.journal_mb": "MB",
		"evalcache.hits": "count", "evalcache.writes": "count", "evalcache.hit_frac": "fraction",
		"checkpoint.replayed": "count", "checkpoint.journal_mb": "MB",
		"fleet.prepare_s": "s", "fleet.shards": "count", "fleet.points_per_shard": "count",
		"fleet.records_installed": "count", "fleet.records_per_point": "count", "fleet.local_fallbacks": "count",
		"fleet.retries": "count", "fleet.rpc_overhead_s": "s",
		"serve.eval_busy_s": "s", "serve.eval_ms_p50": "ms", "serve.eval_ms_p95": "ms", "serve.requests": "count",
		"serve.eval_shed":        "count",
		"opt.propose_ms_p95_pct": "percentile", "eval.design_ms_p95_pct": "percentile", "serve.eval_ms_p95_pct": "percentile",
		"runtime.gc_cycles": "count", "runtime.mallocs_m": "M", "runtime.gc_pause_ms": "ms",
		"campaign.best_latency_ms": "ms", "campaign.feasible_frac": "fraction", "campaign.evals_to_best": "count",
		"check.count_mismatches": "count",
		"trace.overhead_frac":    "fraction", "trace.spans": "count",
	}
)

// pins holds the reference fingerprints: campaign -> seed -> "technique/model"
// -> Trace.Fingerprint(). Regenerate an entry with --pin.
//
//go:embed pins.json
var pinsJSON []byte

func pinnedFingerprints(campaign string, seed int64) (map[string]string, error) {
	var pins map[string]map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins[campaign][strconv.FormatInt(seed, 10)], nil
}

// pinSeed runs the workload's campaign locally at seed and records its
// fingerprints in the pins file at path.
func pinSeed(path string, s spec, seed int64) error {
	e, err := buildEnv(s, seed)
	if err != nil {
		return err
	}
	out := summarize(exp.RunCampaign(context.Background(), e.cfg, e.techs, e.models, 0).Runs, nil, 0, 0)
	if len(out.failures) > 0 {
		return fmt.Errorf("reference campaign failed: %s", strings.Join(out.failures, "; "))
	}
	pins := map[string]map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if pins[s.campaign] == nil {
		pins[s.campaign] = map[string]map[string]string{}
	}
	pins[s.campaign][strconv.FormatInt(seed, 10)] = out.fingerprints
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// session is one workload at one workload seed within one benchmark process.
type session struct {
	spec  spec
	seeds []*campaignSeed
	work  string
	rec   *recorder
	n     int
}

// campaignSeed is one of a session's campaign seeds (see campaignSeeds).
type campaignSeed struct {
	seed int64
	env  env
	// ref holds the fingerprints every campaign must reproduce.
	ref map[string]string
	// pristine is durable-restart's populated store and journals, and
	// state their files as the populating pass left them: each resumed
	// campaign runs on pristine after it is restored to state.
	pristine string
	state    treeState
}

// iteration is one measured campaign.
type iteration struct {
	cs     *campaignSeed
	traced bool
	setup  []float64 // seconds
	wall   time.Duration
	cpu    time.Duration
	allocB uint64
	malloc uint64
	gcs    uint32
	pause  uint64 // ns
	out    outcome
	// note is printed with the campaign's progress line.
	note string
	// layer holds the per-layer metrics of a traced campaign.
	layer map[string]float64
}

// A local workload's set-up — the configuration, the models and roster, and
// the design space — takes tens of microseconds, so each campaign times
// setupSamples batches of setupBatch set-ups and records the mean of each
// batch; the reported set-up time is the median over all samples.
const (
	setupSamples = 10
	setupBatch   = 100
	remoteSetups = 9
)

// measure runs the workload's campaigns until seconds have passed and
// reduces them to the printed result. With several campaign seeds it runs
// them in rounds, one campaign per seed each.
func measure(s spec, seed int64, seconds float64, trace bool, work string) (result, error) {
	ss := &session{spec: s, work: work}
	for k, cseed := range campaignSeeds(s, seed) {
		cs, err := ss.prepareSeed(cseed, filepath.Join(work, fmt.Sprintf("pristine-%d", k)))
		if err != nil {
			return result{}, err
		}
		ss.seeds = append(ss.seeds, cs)
	}
	if trace {
		ss.rec = newRecorder()
	}

	var iters []iteration
	nseeds := len(ss.seeds)
	start, roundStart := time.Now(), time.Now()
	for i := 0; ; i++ {
		cs := ss.seeds[i%nseeds]
		traced := trace && (i/nseeds)%2 == 1
		it, err := ss.iterate(cs, traced)
		if err != nil {
			return result{}, err
		}
		if cs.ref == nil && len(it.out.failures) == 0 {
			// An unpinned local seed: the first campaign is the reference.
			cs.ref = it.out.fingerprints
		}
		iters = append(iters, it)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d campaign %d traced=%v: %.3fs (setup %.4fs), %d/%d runs failed%s\n",
			s.name, cs.seed, i+1, traced, it.wall.Seconds(), median(it.setup), len(it.out.failures), it.out.runs, it.note)
		if (i+1)%nseeds != 0 {
			continue
		}
		// Stop when another round like this one would end more than half
		// of it past the window, so a run measures about seconds; a traced
		// run needs an untraced and a traced round.
		if time.Since(start).Seconds()+time.Since(roundStart).Seconds()/2 >= seconds && (!trace || i+1 >= 2*nseeds) {
			break
		}
		roundStart = time.Now()
	}
	if trace {
		if err := ss.rec.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", s.name, seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	return reduce(ss, iters, trace), nil
}

// prepareSeed builds a campaign seed's configuration and finds its reference
// fingerprints, running a local reference campaign for an unpinned seed of a
// workload that does not evaluate locally. For durable-restart it also leaves
// the populated store and journals in pristine. All of it runs before the
// measuring window.
func (ss *session) prepareSeed(seed int64, pristine string) (*campaignSeed, error) {
	e, err := buildEnv(ss.spec, seed)
	if err != nil {
		return nil, err
	}
	cs := &campaignSeed{seed: seed, env: e}
	if cs.ref, err = pinnedFingerprints(ss.spec.campaign, seed); err != nil {
		return nil, err
	}
	if cs.ref == nil {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d has no pinned fingerprints; checking against a reference campaign in this process\n", seed)
		if ss.spec.layer != local {
			out := summarize(exp.RunCampaign(context.Background(), e.cfg, e.techs, e.models, 0).Runs, nil, 0, 0)
			if len(out.failures) > 0 {
				return nil, fmt.Errorf("seed %d: reference campaign failed: %s", seed, strings.Join(out.failures, "; "))
			}
			cs.ref = out.fingerprints
		}
	}
	if ss.spec.layer == durable {
		cs.pristine = pristine
		if err := populate(e, pristine); err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if cs.state, err = snapshotTree(pristine); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// reduce checks the campaigns against each other and the work-count record,
// and takes medians of the host-time metrics. With several campaign seeds an
// end-to-end metric is the sum over the seeds of each seed's median (the
// campaign of the run is all of them), set-up excepted, and the per-layer
// metrics describe the workload seed's own campaigns.
func reduce(ss *session, iters []iteration, trace bool) result {
	res := result{Metrics: map[string]metric{}}
	// A differing work count fails the run, except unrepeatedCount, which
	// is only counted in check.count_mismatches.
	mismatches := 0
	countCheck := func(diffs []countDiff, against string) {
		for _, d := range diffs {
			if d.name == unrepeatedCount {
				mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: known work-count repeat failure (reported, not failing), %s: %v\n", against, d)
				continue
			}
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL work-count repeat check, %s: %v\n", against, d)
		}
	}
	first := map[*campaignSeed]int{} // each seed's first campaign
	for i, it := range iters {
		res.Attempted += it.out.runs
		res.Failed += len(it.out.failures)
		for _, f := range it.out.failures {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL campaign %d: %s\n", i+1, f)
		}
		j, seen := first[it.cs]
		if !seen {
			first[it.cs] = i
			continue
		}
		countCheck(countDiffs(iters[j].out.counts, it.out.counts), fmt.Sprintf("seed %d campaign %d vs campaign %d", it.cs.seed, i+1, j+1))
	}
	for _, cs := range ss.seeds {
		out := iters[first[cs]].out
		prev, err := checkWorkRecord(ss, cs.seed, out)
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL work-count record: %v\n", err)
			continue
		}
		countCheck(countDiffs(prev, out.counts), fmt.Sprintf("seed %d, an earlier process of this binary vs this one", cs.seed))
	}
	res.Correct = res.Failed == 0
	set := func(units map[string]string, name string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	// pick is the median of f over the campaigns of seed cs in its.
	pick := func(its []iteration, cs *campaignSeed, f func(iteration) float64) float64 {
		var xs []float64
		for _, it := range its {
			if it.cs == cs {
				xs = append(xs, f(it))
			}
		}
		return median(xs)
	}
	var untraced, traced []iteration
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if !trace {
		sum := func(f func(iteration) float64) float64 {
			total := 0.0
			for _, cs := range ss.seeds {
				total += pick(untraced, cs, f)
			}
			return total
		}
		var setups []float64
		for _, it := range untraced {
			setups = append(setups, it.setup...)
		}
		set(endToEndUnits, "campaign_s", sum(func(it iteration) float64 { return it.wall.Seconds() }))
		set(endToEndUnits, "cpu_s", sum(func(it iteration) float64 { return it.cpu.Seconds() }))
		set(endToEndUnits, "setup_s", median(setups))
		set(endToEndUnits, "alloc_mb", sum(func(it iteration) float64 { return float64(it.allocB) / 1e6 }))
		set(endToEndUnits, "peak_rss_mb", peakRSSMB())
		return res
	}
	own := ss.seeds[0]
	for name := range perLayerUnits {
		set(perLayerUnits, name, pick(traced, own, func(it iteration) float64 { return it.layer[name] }))
	}
	set(perLayerUnits, "runtime.gc_cycles", pick(untraced, own, func(it iteration) float64 { return float64(it.gcs) }))
	set(perLayerUnits, "runtime.mallocs_m", pick(untraced, own, func(it iteration) float64 { return float64(it.malloc) / 1e6 }))
	set(perLayerUnits, "runtime.gc_pause_ms", pick(untraced, own, func(it iteration) float64 { return float64(it.pause) / 1e6 }))
	set(perLayerUnits, "campaign.best_latency_ms", iters[0].out.bestLatencyMs)
	set(perLayerUnits, "campaign.feasible_frac", iters[0].out.feasibleFrac)
	set(perLayerUnits, "campaign.evals_to_best", float64(iters[0].out.evalsToBest))
	set(perLayerUnits, "check.count_mismatches", float64(mismatches))
	tracedWall := pick(traced, own, func(it iteration) float64 { return it.wall.Seconds() })
	untracedWall := pick(untraced, own, func(it iteration) float64 { return it.wall.Seconds() })
	set(perLayerUnits, "trace.overhead_frac", tracedWall/untracedWall-1)
	return res
}

// iterate runs one campaign: the workload's set-up, then the timed campaign,
// then its checks.
func (ss *session) iterate(cs *campaignSeed, traced bool) (iteration, error) {
	ss.n++
	it := iteration{cs: cs, traced: traced}
	var rec *recorder
	from := 0
	if traced {
		rec = ss.rec
		from = len(rec.snapshot())
	}
	e := cs.env
	cfg := e.cfg
	dir := filepath.Join(ss.work, strconv.Itoa(ss.n))
	defer os.RemoveAll(dir)
	stateDir := dir // where the campaign's store and journals are
	runtime.GC()    // every set-up starts from the same heap state
	p := pieces{rec: rec}
	var store *evalcache.Store
	var lb *loopback
	switch ss.spec.layer {
	case local:
		for i := 0; i < setupSamples; i++ {
			t := time.Now()
			for j := 0; j < setupBatch; j++ {
				if _, err := buildEnv(ss.spec, cs.seed); err != nil {
					return it, err
				}
				arch.EdgeSpace()
			}
			it.setup = append(it.setup, time.Since(t).Seconds()/setupBatch)
		}
	case durable:
		stateDir = cs.pristine
		if err := cs.state.restore(stateDir); err != nil {
			return it, fmt.Errorf("restoring the populated state: %w", err)
		}
		t := time.Now()
		id := rec.begin(spanOpen, "", 0)
		s, err := evalcache.Open(filepath.Join(stateDir, "store"), evalcache.Options{})
		rec.end(id)
		it.setup = append(it.setup, time.Since(t).Seconds())
		if err != nil {
			return it, err
		}
		store = s
		cfg.CheckpointDir, cfg.Resume, cfg.Cache = filepath.Join(stateDir, "ckpt"), true, s
		p.store, p.ckptDir, p.resume = s, cfg.CheckpointDir, true
	case remote:
		// Worker and coordinator start in about a millisecond, so each
		// campaign times remoteSetups of them and keeps the last running.
		for i := 0; i < remoteSetups; i++ {
			t := time.Now()
			l, err := startLoopback(filepath.Join(dir, "worker"+strconv.Itoa(i)), rec)
			if err != nil {
				return it, err
			}
			it.setup = append(it.setup, time.Since(t).Seconds())
			if i < remoteSetups-1 {
				l.stop()
				continue
			}
			lb = l
		}
		defer lb.stop()
		cfg.Fleet, p.coord = lb.coord, lb.coord
	}

	runtime.GC()
	m0, c0, t0 := memSnapshot(), cpuTime(), time.Now()
	var runs []exp.Run
	if traced {
		runs = campaignPieces(env{cfg: cfg, techs: e.techs, models: e.models}, p)
	} else {
		runs = exp.RunCampaign(context.Background(), cfg, e.techs, e.models, 0).Runs
	}
	it.wall, it.cpu = time.Since(t0), cpuTime()-c0
	m1 := memSnapshot()
	it.allocB, it.malloc = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	it.gcs, it.pause = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs

	var coordReg *obs.Registry
	var shards, installed int64
	if lb != nil {
		coordReg = lb.coord.Metrics()
		shards = coordReg.Counter("fleet_shards_dispatched_total").Value()
		installed = coordReg.Counter("fleet_records_installed_total").Value()
		it.note = fmt.Sprintf(", fleet retries %d, local fallbacks %d",
			coordReg.Counter("fleet_retries_total").Value(), coordReg.Counter("fleet_shards_local_total").Value())
	}
	it.out = summarize(runs, cs.ref, shards, installed)
	if traced {
		it.layer = layerMetrics(rec.snapshot(), from, runs, it.out, store, coordReg, stateDir)
	}
	return it, nil
}

// populate leaves durable-restart's starting state in dir, outside every
// timer: the campaign run with checkpoint journals and a persistent store,
// each run cancelled at the first batch boundary after 80% of its budget.
func populate(e env, dir string) error {
	store, err := evalcache.Open(filepath.Join(dir, "store"), evalcache.Options{})
	if err != nil {
		return err
	}
	runs := campaignPieces(e, pieces{store: store, ckptDir: filepath.Join(dir, "ckpt"), cutAt: 0.8})
	for _, r := range runs {
		if r.Err != "" || erroredStep(r) != "" {
			return fmt.Errorf("populating pass: %s/%s failed: %s%s", r.Technique, r.Model, r.Err, erroredStep(r))
		}
	}
	return nil
}

// layerMetrics combines a traced campaign's span times with the counters of
// the evaluators, the store and the coordinator.
func layerMetrics(spans []span, from int, runs []exp.Run, out outcome, store *evalcache.Store, coordReg *obs.Registry, dir string) map[string]float64 {
	m := spanMetrics(spans, from)
	var batches, points, lookups, misses, hits, pmisses, warmProbes, warmFalls, tier2, pruned, memo int64
	var batchWall time.Duration
	var searchS float64
	for _, r := range runs {
		st := r.Stats
		batches += r.Batch.Batches
		points += r.Batch.Points
		batchWall += r.Batch.Wall
		lookups += int64(st.LayerHits + st.LayerDedups + st.PersistHits + st.LayerMisses)
		misses += int64(st.LayerMisses)
		hits += int64(st.PersistHits)
		pmisses += int64(st.PersistMisses)
		warmProbes += int64(st.WarmProbes)
		warmFalls += int64(st.WarmFallbacks)
		tier2 += st.FullEvals
		pruned += st.LBPruned
		memo += int64(st.CacheHits + st.InflightDedups)
		searchS += r.Metrics.Histogram("eval_layer_search_seconds", nil).Sum()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	trials := float64(out.counts["mapping.trials"])
	m["search.batches"] = float64(batches)
	m["search.points_per_batch"] = ratio(float64(points), float64(batches))
	m["search.batch_s"] = batchWall.Seconds()
	m["eval.designs"] = float64(out.counts["eval.designs"])
	m["eval.memo_hits"] = float64(memo)
	m["eval.layer_lookups"] = float64(lookups)
	m["eval.layer_hit_frac"] = ratio(float64(lookups-misses), float64(lookups))
	m["mapping.searches"] = float64(misses)
	m["mapping.trials"] = trials
	m["mapping.lb_pruned_frac"] = ratio(float64(pruned), trials)
	m["mapping.warm_probes"] = float64(warmProbes)
	m["mapping.warm_fallbacks"] = float64(warmFalls)
	m["perf.tier1_calls"] = float64(out.counts["perf.tier1_calls"])
	m["perf.tier2_calls"] = float64(tier2)
	m["mapping.ns_per_trial"] = ratio(searchS*1e9, trials)
	m["evalcache.hits"] = float64(hits)
	m["evalcache.writes"] = float64(out.counts["evalcache.writes"])
	m["evalcache.hit_frac"] = ratio(float64(hits), float64(hits+pmisses))
	if store != nil {
		m["evalcache.records_loaded"] = float64(store.Metrics().Counter("evalcache_records_loaded_total").Value())
		m["evalcache.journal_mb"] = treeMB(filepath.Join(dir, "store"))
	}
	m["checkpoint.replayed"] = float64(out.counts["checkpoint.replayed"])
	m["checkpoint.journal_mb"] = treeMB(filepath.Join(dir, "ckpt"))
	if coordReg != nil {
		shards := float64(coordReg.Counter("fleet_shards_dispatched_total").Value())
		offered := float64(coordReg.Counter("fleet_points_offered_total").Value())
		m["fleet.shards"] = shards
		m["fleet.points_per_shard"] = ratio(offered, shards)
		m["fleet.records_installed"] = float64(out.counts["fleet.records_installed"])
		m["fleet.records_per_point"] = ratio(m["fleet.records_installed"], offered)
		m["fleet.local_fallbacks"] = float64(coordReg.Counter("fleet_shards_local_total").Value())
		m["fleet.retries"] = float64(coordReg.Counter("fleet_retries_total").Value())
	} else {
		// Without a coordinator the prepare spans are the benchmark's own
		// batch markers, not fleet time.
		m["fleet.prepare_s"] = 0
		m["fleet.rpc_overhead_s"] = 0
	}
	return m
}

// treeMB returns the total size of the regular files under dir in MB (0 when
// dir does not exist).
func treeMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}

// treeState is the size and identity of every regular file under a
// directory, by path relative to it.
type treeState map[string]os.FileInfo

// snapshotTree records dir's regular files.
func snapshotTree(dir string) (treeState, error) {
	t := treeState{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		t[rel] = info
		return err
	})
	return t, err
}

// restore returns dir to the recorded state after a campaign that only
// appended to its files and added new ones, which is how the store and the
// checkpoint journals write: it truncates each recorded file to its recorded
// size, syncing it so the campaign after does not flush the truncation, and
// removes every file it did not record. A recorded file that was replaced,
// shortened or removed cannot be restored.
func (t treeState) restore(dir string) error {
	now, err := snapshotTree(dir)
	if err != nil {
		return err
	}
	for rel, info := range now {
		path := filepath.Join(dir, rel)
		was, ok := t[rel]
		switch {
		case !ok:
			err = os.Remove(path)
		case !os.SameFile(was, info) || info.Size() < was.Size():
			err = fmt.Errorf("%s was rewritten, not appended to", path)
		case info.Size() > was.Size():
			err = truncateSync(path, was.Size())
		}
		if err != nil {
			return err
		}
	}
	for rel := range t {
		if _, ok := now[rel]; !ok {
			return fmt.Errorf("%s was removed", filepath.Join(dir, rel))
		}
	}
	return nil
}

func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkWorkRecord returns the work counts an earlier process of the same
// binary recorded for this workload and campaign seed, and records out's
// when none exist yet (returning them): the repeat check across processes.
func checkWorkRecord(ss *session, seed int64, out outcome) (map[string]int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(".bench_build", "workcounts", hex.EncodeToString(sum[:8]), fmt.Sprintf("%s-seed%d.json", ss.spec.name, seed))
	if prev, err := os.ReadFile(path); err == nil {
		var counts map[string]int64
		if err := json.Unmarshal(prev, &counts); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return counts, nil
	}
	if data, err = json.Marshal(out.counts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return out.counts, os.WriteFile(path, data, 0o644)
}
