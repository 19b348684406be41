package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xdse/internal/arch"
	"xdse/internal/checkpoint"
	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/search"
	"xdse/internal/serve"
	"xdse/internal/workload"
)

// pieces selects what a run built from the public pieces attaches.
type pieces struct {
	store   *evalcache.Store
	ckptDir string // campaign checkpoint root; "" runs unjournaled
	resume  bool
	coord   *fleet.Coordinator
	rec     *recorder // nil runs untraced
	// cutAt > 0 cancels the run at the first batch boundary where it has
	// spent at least this share of its unique-design budget.
	cutAt float64
}

// runPieces performs one (technique, model) run the way exp.RunOne does —
// eval.New, ProblemCtx or ResumableProblem, Technique.Make and
// Optimizer.Run — so the benchmark can time the calls into each layer and
// cancel at a batch boundary.
func runPieces(cfg exp.Config, tech exp.Technique, model *workload.Model, p pieces) (run exp.Run) {
	run = exp.Run{Technique: tech.Name, Model: model.Name, Mode: tech.Mode, Trace: &search.Trace{Name: tech.Name}}
	budget := budgetFor(cfg, tech)
	space := arch.EdgeSpace()
	cons := eval.EdgeConstraints()
	ev := eval.New(eval.Config{
		Space:        space,
		Models:       []*workload.Model{model},
		Constraints:  cons,
		Mode:         tech.Mode,
		MapTrials:    cfg.MapTrials,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		PersistCache: p.store,
	})
	o := tech.Make(space, cons)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	label := runLabel(tech.Name, model.Name)
	var prob *search.Problem
	if p.ckptDir != "" {
		j, err := checkpoint.Open(filepath.Join(p.ckptDir, label), checkpoint.Options{Fresh: !p.resume})
		if err != nil {
			run.Err = fmt.Sprintf("checkpoint: %v", err)
			return run
		}
		defer j.Close()
		run.Resumed = len(j.Replayed())
		prob = ev.ResumableProblem(ctx, budget, j, nil)
	} else {
		prob = ev.ProblemCtx(ctx, budget)
	}
	if p.coord != nil {
		prob.Prepare = p.coord.Prepare(ev, model.Name)
	}

	runSpan := p.rec.beginRun(label)
	if p.rec != nil || p.cutAt > 0 {
		// The hooks only observe: Evaluate and Prepare are called exactly
		// as before, and a no-op Prepare is result neutral by contract.
		inner := prob.Evaluate
		var seen sync.Map // design keys this run has evaluated
		prob.Evaluate = func(pt arch.Point) search.Costs {
			_, again := seen.LoadOrStore(pt.Key(), true)
			isFirst := p.rec != nil && !again
			id := p.rec.begin(spanEval, label, runSpan)
			c := inner(pt)
			p.rec.endEval(id, isFirst)
			return c
		}
		innerPrep := prob.Prepare
		cut := int(p.cutAt * float64(budget))
		prob.Prepare = func(ctx context.Context, pts []arch.Point) {
			if p.cutAt > 0 && ev.Evaluations() >= cut {
				cancel()
				return
			}
			id := p.rec.beginPrepare(label, runSpan)
			if innerPrep != nil {
				innerPrep(ctx, pts)
			}
			p.rec.endPrepare(id)
		}
	}
	start := time.Now()
	run.Trace, run.Err = optimize(o, prob, rand.New(rand.NewSource(cfg.Seed)))
	run.Elapsed = time.Since(start)
	p.rec.end(runSpan)
	run.Interrupted = ctx.Err() != nil
	run.Evaluations = ev.Evaluations()
	run.Stats = ev.Stats()
	run.Batch = prob.Stats.Report()
	run.Metrics = ev.Metrics()
	return run
}

// optimize runs the optimizer, reporting a panic as the run's error.
func optimize(o search.Optimizer, p *search.Problem, rng *rand.Rand) (tr *search.Trace, panicErr string) {
	defer func() {
		if rec := recover(); rec != nil {
			panicErr = fmt.Sprintf("optimizer panic: %v", rec)
		}
		if tr == nil {
			tr = &search.Trace{Name: o.Name()}
		}
	}()
	return o.Run(p, rng), ""
}

// campaignPieces runs every (technique, model) pair serially through
// runPieces, in roster order like exp.RunCampaign.
func campaignPieces(e env, p pieces) []exp.Run {
	var runs []exp.Run
	for _, t := range e.techs {
		for _, m := range e.models {
			runs = append(runs, runPieces(e.cfg, t, m, p))
		}
	}
	return runs
}

// loopback is one in-process serve worker on 127.0.0.1 with a fleet
// coordinator pointed at it, both at default options.
type loopback struct {
	srv   *serve.Server
	hs    *http.Server
	coord *fleet.Coordinator
	done  chan struct{}
}

// startLoopback starts the worker — serve.Handler mounted on a loopback
// listener, plus its job workers — and a coordinator, returning once the
// coordinator has admitted the worker. rec, when non-nil, times the
// worker's /eval requests.
func startLoopback(dir string, rec *recorder) (*loopback, error) {
	srv, err := serve.New(serve.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: srv, hs: &http.Server{Handler: rec.wrapServe(srv.Handler())}, done: make(chan struct{})}
	srv.StartWorkers()
	go func() {
		defer close(lb.done)
		if err := lb.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: worker: %v\n", err)
		}
	}()
	lb.coord, err = fleet.New([]string{ln.Addr().String()}, fleet.Options{})
	if err != nil {
		lb.stop()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); lb.coord.WorkersHealthy() == 0; {
		if time.Now().After(deadline) {
			lb.stop()
			return nil, errors.New("loopback worker not admitted within 10s")
		}
		time.Sleep(20 * time.Microsecond)
	}
	return lb, nil
}

// stop closes the coordinator, drains the worker and waits for its listener
// to exit.
func (lb *loopback) stop() {
	if lb.coord != nil {
		lb.coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lb.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: worker drain: %v\n", err)
	}
	if err := lb.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: worker shutdown: %v\n", err)
	}
	<-lb.done
}
