package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/workload"
)

// layer names where a workload's layer searches are answered.
type layer int

const (
	// local answers every layer search with in-process mapping search.
	local layer = iota
	// durable resumes the campaign over checkpoint journals and a
	// persistent evaluation store left behind by a cancelled pass.
	durable
	// remote sends each batch's fresh points to one in-process serve
	// worker over loopback HTTP before evaluating locally.
	remote
)

// spec is one benchmark workload: the (technique, model) runs of its
// campaign and the layer its layer searches go to.
type spec struct {
	name string
	// campaign names the pinned campaign whose fingerprints the workload
	// must reproduce; the three codesign workloads share one.
	campaign string
	techs    []string
	models   []string
	layer    layer
	// seeds is how many campaign seeds one run measures (see
	// campaignSeeds); 0 means one, the workload seed itself.
	seeds int
}

var (
	codesignTechs  = []string{"RandomSearch-Codesign", "HyperMapper2.0-Codesign", "ExplainableDSE-Codesign"}
	codesignModels = []string{"ResNet18", "MobileNetV2", "EfficientNetB0"}
)

// specs lists the workloads; README.md gives the reason for each. Each loads
// one layer: surrogate fit and predict (static-surrogate), per-layer mapping
// search (codesign-mapping), journal replay plus store reads and appends
// (durable-restart), and remote evaluation over the fleet (fleet-loopback).
// The codesign workloads run the same campaign or a part of it, so their
// fingerprints must agree.
//
// fleet-loopback leaves HyperMapper2.0-Codesign out: its opening batch is
// split into three concurrent shards, the worker's default EvalConcurrent of
// 2 sheds one of them with 429 and a two-second Retry-After, and whether it
// does is a race. fleet-loopback-hm runs the whole codesign campaign over the
// fleet so that defect stays measurable; it is not a scored workload.
var specs = []spec{
	{name: "static-surrogate", campaign: "static",
		techs:  []string{"BayesianOpt-FixDF", "HyperMapper2.0-FixDF"},
		models: []string{"ResNet18", "MobileNetV2"}, layer: local},
	{name: "codesign-mapping", campaign: "codesign", techs: codesignTechs, models: codesignModels, layer: local},
	{name: "durable-restart", campaign: "codesign", techs: codesignTechs, models: codesignModels, layer: durable, seeds: 3},
	{name: "fleet-loopback", campaign: "codesign",
		techs:  []string{"RandomSearch-Codesign", "ExplainableDSE-Codesign"},
		models: codesignModels, layer: remote},
	{name: "fleet-loopback-hm", campaign: "codesign", techs: codesignTechs, models: codesignModels, layer: remote},
}

// seedStride separates the campaign seeds of one workload seed, so workload
// seeds 0-999 never share a campaign seed.
const seedStride = 1000

// campaignSeeds returns the seeds of the campaigns one run measures: the
// workload seed, then seed+1000, seed+2000, ... up to s.seeds of them.
// durable-restart resumes only the last fifth of each run, so one seed's
// resumed campaign is too little work to be the same size from seed to
// seed; it measures three.
func campaignSeeds(s spec, seed int64) []int64 {
	seeds := []int64{seed}
	for k := 1; k < s.seeds; k++ {
		seeds = append(seeds, seed+int64(k)*seedStride)
	}
	return seeds
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// env is everything a campaign needs before its first evaluation: the
// generated configuration and the resolved techniques and models.
type env struct {
	cfg    exp.Config
	techs  []exp.Technique
	models []*workload.Model
}

// configFor generates the program's whole input from the workload seed: the
// reduced-budget experiment configuration on the seed's random stream, one
// optimizer run at a time (Parallel 1) and the evaluator's default worker
// count.
func configFor(seed int64) exp.Config {
	cfg := exp.Default()
	cfg.Seed = seed
	cfg.Models = nil
	cfg.Out = io.Discard
	cfg.Parallel = 1
	return cfg
}

// buildEnv is the set-up of the local workloads: the configuration, the
// models and the technique roster.
func buildEnv(s spec, seed int64) (env, error) {
	e := env{cfg: configFor(seed)}
	for _, name := range s.techs {
		t, ok := exp.TechniqueByName(name)
		if !ok {
			return env{}, fmt.Errorf("unknown technique %q", name)
		}
		e.techs = append(e.techs, t)
	}
	for _, name := range s.models {
		m := workload.ByName(name)
		if m == nil {
			return env{}, fmt.Errorf("unknown model %q", name)
		}
		e.models = append(e.models, m)
	}
	return e, nil
}

// budgetFor mirrors exp's per-technique budget: the static budget for
// fixed-dataflow techniques, the codesign budget otherwise.
func budgetFor(cfg exp.Config, t exp.Technique) int {
	if t.Mode == eval.FixedDataflow {
		return cfg.Budget
	}
	return cfg.CodesignBudget
}

// runLabel names a run the way exp names its checkpoint directories.
func runLabel(tech, model string) string {
	return sanitize(tech) + "_" + sanitize(model)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// outcome is what one campaign produced, reduced to what the benchmark checks
// and reports.
type outcome struct {
	fingerprints map[string]string
	runs         int
	// failures holds one reason per failed run: crashed, interrupted, an
	// errored evaluation, or a fingerprint that differs from the reference.
	failures []string
	// Simulated quality, identical on every repeat of a seed.
	bestLatencyMs float64
	feasibleFrac  float64
	evalsToBest   int
	// counts are the work counts that must repeat exactly for a seed.
	counts map[string]int64
}

// workCountNames are the counts the repeat check compares across every
// campaign of one seed; a difference means the work split depends on timing.
var workCountNames = []string{
	"eval.designs", "mapping.trials", "perf.tier1_calls", "evalcache.writes",
	"checkpoint.replayed", "fleet.shards", "fleet.records_installed",
}

// unrepeatedCount is the one work count that does not repeat at this
// commit: which warm-start incumbent a pruned search sees depends on which
// search of the same shape finished first (README.md, Output checks). Its
// differences are reported in check.count_mismatches; a difference in any
// other count fails the run.
const unrepeatedCount = "perf.tier1_calls"

// summarize checks each run against the reference fingerprints (nil: no
// reference) and aggregates quality and work counts. fleetShards and
// fleetInstalled come from the coordinator, zero without one.
func summarize(runs []exp.Run, ref map[string]string, fleetShards, fleetInstalled int64) outcome {
	o := outcome{fingerprints: map[string]string{}, runs: len(runs), counts: map[string]int64{}}
	logSum, feasibleRuns, feasibleSteps, steps := 0.0, 0, 0, 0
	for _, r := range runs {
		key := r.Technique + "/" + r.Model
		fp := r.Trace.Fingerprint()
		o.fingerprints[key] = fp
		switch {
		case r.Err != "":
			o.failures = append(o.failures, key+": crashed: "+r.Err)
		case r.Interrupted:
			o.failures = append(o.failures, key+": interrupted")
		case erroredStep(r) != "":
			o.failures = append(o.failures, key+": errored evaluation: "+erroredStep(r))
		case ref != nil && ref[key] != fp:
			o.failures = append(o.failures, fmt.Sprintf("%s: fingerprint %.12s, want %.12s", key, fp, ref[key]))
		}
		if r.Trace.Best != nil {
			logSum += math.Log(r.Trace.BestObjective())
			feasibleRuns++
		}
		for _, st := range r.Trace.Steps {
			if st.Costs.Feasible {
				feasibleSteps++
			}
		}
		steps += len(r.Trace.Steps)
		o.evalsToBest += r.Trace.EvalsToBest()
		o.counts["eval.designs"] += int64(r.Stats.Evaluations)
		o.counts["mapping.trials"] += r.Stats.MapTrials
		o.counts["perf.tier1_calls"] += r.Stats.CostCalls
		o.counts["evalcache.writes"] += int64(r.Stats.PersistWrites)
		o.counts["checkpoint.replayed"] += int64(r.Resumed)
	}
	o.counts["fleet.shards"] = fleetShards
	o.counts["fleet.records_installed"] = fleetInstalled
	if feasibleRuns > 0 {
		o.bestLatencyMs = math.Exp(logSum / float64(feasibleRuns))
	}
	if steps > 0 {
		o.feasibleFrac = float64(feasibleSteps) / float64(steps)
	}
	return o
}

// erroredStep returns the first errored evaluation's reason on a run's trace.
func erroredStep(r exp.Run) string {
	for _, st := range r.Trace.Steps {
		if st.Costs.Err != "" {
			return st.Costs.Err
		}
	}
	return ""
}

// countDiff is one work count that differs between two campaigns of a seed.
type countDiff struct {
	name string
	a, b int64
}

func (d countDiff) String() string { return fmt.Sprintf("%s: %d then %d", d.name, d.a, d.b) }

// countDiffs lists the work counts that differ between two campaigns of one
// seed; a difference means the work split depends on timing.
func countDiffs(a, b map[string]int64) []countDiff {
	var diffs []countDiff
	for _, name := range workCountNames {
		if a[name] != b[name] {
			diffs = append(diffs, countDiff{name, a[name], b[name]})
		}
	}
	return diffs
}
