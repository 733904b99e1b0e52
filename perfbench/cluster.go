package main

import (
	"context"
	"fmt"
	"time"

	kifmm "repro"
	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// Cluster-loopback checks: the distributed answer must match the
// single-node engine on the same problem to accumulation accuracy, and
// degree 4 bounds its accuracy against direct summation.
const (
	clusterTol       = 1e-12
	clusterDirectTol = 1e-2
)

// runCluster runs back-to-back distributed evaluations on an
// in-process coordinator and two one-lane workers over TCP loopback.
func runCluster(ctx context.Context, cfg config, rep *report) error {
	const n, degree, workers, maxPoints = 12000, 4, 2, 60
	pts := kifmm.FlattenPatches(kifmm.SpherePatches(cfg.seed, n, 2, 0.3))
	dens := densities(cfg.seed, 4, n)
	job := func(q int) cluster.EvalRequest {
		return cluster.EvalRequest{Src: pts, Den: dens[q], Kernel: kernels.Spec{Name: "laplace"}, Degree: degree, MaxPoints: maxPoints}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	// A short heartbeat bounds how long shutdown waits for the nodes'
	// heartbeat loops; two silent intervals still far exceed a job.
	coord, err := cluster.StartCoordinator(ctx, "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		return err
	}
	defer coord.Close()
	var nodes []*cluster.Worker
	defer func() {
		for _, w := range nodes {
			w.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := cluster.StartWorker(ctx, cluster.WorkerConfig{Coordinator: coord.Addr(), Lanes: 1})
		if err != nil {
			return err
		}
		nodes = append(nodes, w)
	}
	for coord.Workers() < workers {
		if time.Since(start) > 10*time.Second {
			return fmt.Errorf("only %d of %d workers joined", coord.Workers(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	fj := time.Now()
	first, _, err := coord.Evaluate(ctx, job(0))
	if err != nil {
		return err
	}
	firstJob := time.Since(fj)
	rep.setup = time.Since(start)
	if cfg.setupOnly {
		return nil
	}

	// References: the single-node engine on the identical problem, and
	// direct summation at sampled targets.
	ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, kifmm.Options{Kernel: kifmm.Laplace(), Degree: degree, MaxPoints: maxPoints})
	if err != nil {
		return err
	}
	single := make([][]float64, len(dens))
	for q, den := range dens {
		if single[q], err = ev.EvaluateCtx(ctx, den); err != nil {
			return err
		}
	}
	ev.Close()
	refs, err := newDirectRefs(ctx, kifmm.Laplace(), pts, dens, cfg.seed, false)
	if err != nil {
		return err
	}
	if cfg.corrupt {
		single[0][0] *= 1.5
	}
	check := func(q int, pot []float64) {
		e, d := relL2(pot, single[q]), refs.relErr(q, pot)
		rep.attempt(e <= clusterTol && d <= clusterDirectTol,
			"cluster job on density %d: relative error %.3g against the single-node engine, %.3g against direct summation", q, e, d)
	}
	check(0, first)
	if cfg.full {
		if err := fullAccuracy(ctx, rep, kifmm.Laplace(), pts, dens[0], first); err != nil {
			return err
		}
	}

	if cfg.trace {
		if _, err := shapeLayers(ctx, rep, pts); err != nil {
			return err
		}
		for _, w := range nodes {
			w.Pool().SetAcquireObserver(leaseRecorder(rep))
		}
	}
	t0 := rep.beginWindow()
	for i := 0; more(t0, cfg.window, rep.ops); i++ {
		q := (i + 1) % len(dens)
		traced := cfg.trace && i%2 == 0
		gathered := coord.GatherBytes()
		s := time.Now()
		pot, jr, err := coord.Evaluate(ctx, job(q))
		wall := time.Since(s)
		if err != nil {
			rep.attempt(false, "cluster job %d: %v", i, err)
			continue
		}
		rep.op(ms(wall), traced)
		check(q, pot)
		if traced && jr.Timeline != nil {
			// EvalReport.GatherBytes reads the coordinator's cumulative
			// counter, so the job's own volume is the counter's growth.
			jr.GatherBytes = coord.GatherBytes() - gathered
			clusterLayers(rep, jr, wall)
		}
	}
	rep.endWindow(t0)
	if cfg.trace {
		leaseLayers(rep)
		rep.set("plan.first_op_extra_ms", ms(firstJob)-median(allOps(rep)))
	}
	return nil
}

// clusterLayers records one job's cluster, mpi and parfmm samples from
// its report and merged rank timeline.
func clusterLayers(rep *report, jr *cluster.EvalReport, wall time.Duration) {
	tl := jr.Timeline
	crit := obs.PathDuration(tl.CriticalPath())
	rep.sample("cluster.scatter_bytes", float64(jr.ScatterBytes))
	rep.sample("cluster.gather_bytes", float64(jr.GatherBytes))
	rep.sample("cluster.overhead_ms", ms(wall-crit))
	rep.sample("mpi.mesh_bytes", float64(tl.TotalBytes()))
	rep.sample("mpi.msgs", float64(tl.TotalMessages()))
	var busy, wait time.Duration
	for _, l := range tl.Loads() {
		busy, wait = max(busy, l.Busy), max(wait, l.Wait)
	}
	rep.sample("parfmm.busy_ms_max", ms(busy))
	rep.sample("parfmm.wait_ms_max", ms(wait))
	rep.sample("parfmm.imbalance", tl.ImbalanceRatio())
	rep.sample("parfmm.critical_path_ms", ms(crit))
	// Blocking path: the pass spans of the rank that finished last,
	// each timed by its rank, against that rank's whole run. The
	// coordinator's time outside the ranks' timeline (partition,
	// scatter, gather) is in cluster.overhead_ms, a residual.
	var last *obs.RankTimeline
	for _, rt := range tl.Ranks {
		if last == nil || rt.Root.End > last.Root.End {
			last = rt
		}
	}
	if last != nil && last.Root.Dur() > 0 {
		var passes time.Duration
		for _, c := range last.Root.Children {
			passes += c.Dur()
		}
		rep.sample("obs.path_sum_ratio", passes.Seconds()/last.Root.Dur().Seconds())
	}
}
