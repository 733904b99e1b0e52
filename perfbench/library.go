package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	kifmm "repro"
	"repro/internal/direct"
	"repro/internal/fmm"
	"repro/internal/obs"
)

// directTol bounds the relative error of the library workloads
// against direct summation at degree 6 (documented accuracy about 1e-5).
const directTol = 1e-4

// checkedTargets is how many sampled targets direct summation checks
// each operation's answer at.
const checkedTargets = 256

// directRefs holds direct-summation references at sampled targets, one
// per density vector.
type directRefs struct {
	idx []int
	ref [][]float64
}

// newDirectRefs sums dens directly at checkedTargets targets drawn from
// pts with seed; corrupt perturbs one reference value.
func newDirectRefs(ctx context.Context, k kifmm.Kernel, pts []float64, dens [][]float64, seed int64, corrupt bool) (*directRefs, error) {
	d := &directRefs{idx: sampleIndices(rand.New(rand.NewSource(seed)), len(pts)/3, checkedTargets)}
	trg := gatherPoints(pts, d.idx)
	for _, den := range dens {
		r, err := direct.EvaluateParallel(ctx, k, trg, pts, den, 0)
		if err != nil {
			return nil, err
		}
		d.ref = append(d.ref, r)
	}
	if corrupt {
		d.ref[0][0] *= 1.5
	}
	return d, nil
}

// relErr is the relative L2 error of pot against reference q at the
// sampled targets.
func (d *directRefs) relErr(q int, pot []float64) float64 {
	return relL2(gatherValues(pot, d.idx), d.ref[q])
}

// fullAccuracy pools the error of pot, the answer for den, against
// direct summation at every target into rel_err. It runs outside the
// timed window and not in set-up children.
func fullAccuracy(ctx context.Context, rep *report, k kifmm.Kernel, pts, den, pot []float64) error {
	ref, err := direct.EvaluateParallel(ctx, k, pts, pts, den, 0)
	if err != nil {
		return err
	}
	rep.accuracy(pot, ref)
	return nil
}

// runLaplace is the paper's Table 4.x setting: one caller, one plan,
// back-to-back warm single-RHS evaluations of a uniform cube.
func runLaplace(ctx context.Context, cfg config, rep *report) error {
	const n, degree = 20000, 6
	pts := kifmm.FlattenPatches(kifmm.UniformPatches(cfg.seed, n))
	dens := densities(cfg.seed, 8, n)
	opt := kifmm.Options{Kernel: kifmm.Laplace(), Degree: degree}

	start := time.Now()
	ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, opt)
	if err != nil {
		return err
	}
	defer ev.Close()
	build := time.Since(start)
	first, err := ev.EvaluateCtx(ctx, dens[0])
	if err != nil {
		return err
	}
	rep.setup = time.Since(start)
	if cfg.setupOnly {
		return nil
	}

	refs, err := newDirectRefs(ctx, opt.Kernel, pts, dens, cfg.seed, cfg.corrupt)
	if err != nil {
		return err
	}
	check := func(q int, pot []float64) {
		e := refs.relErr(q, pot)
		rep.attempt(e <= directTol, "laplace evaluation of density %d: relative error %.3g against direct summation", q, e)
	}
	check(0, first)
	if cfg.full {
		if err := fullAccuracy(ctx, rep, opt.Kernel, pts, dens[0], first); err != nil {
			return err
		}
	}

	var sh treeShape
	if cfg.trace {
		if sh, err = shapeLayers(ctx, rep, pts); err != nil {
			return err
		}
		pool := kifmm.DefaultPool()
		pool.SetAcquireObserver(leaseRecorder(rep))
		defer pool.SetAcquireObserver(nil)
	}
	t0 := rep.beginWindow()
	for i := 0; more(t0, cfg.window, rep.ops); i++ {
		q := (i + 1) % len(dens)
		traced := cfg.trace && i%2 == 0
		var (
			pot  []float64
			st   fmm.Stats
			root *obs.Span
		)
		s := time.Now()
		if traced {
			var pots [][]float64
			pots, st, root, err = ev.EvaluateBatchTracedCtx(ctx, dens[q:q+1])
			if err == nil {
				pot = pots[0]
			}
		} else {
			pot, st, err = ev.EvaluateStatsCtx(ctx, dens[q])
		}
		wall := time.Since(s)
		if err != nil {
			rep.attempt(false, "laplace evaluation %d: %v", i, err)
			continue
		}
		rep.op(ms(wall), traced)
		check(q, pot)
		if traced {
			var sw sweep
			sw.add(st, root, sh, degree, 1)
			sw.record(rep, sh)
			rep.sample("obs.path_sum_ratio", sw.passes.Seconds()/wall.Seconds())
		}
	}
	rep.endWindow(t0)
	if cfg.trace {
		leaseLayers(rep)
		planLayers(rep, build, rep.setup-build, median(allOps(rep)), float64(ev.FootprintBytes()))
	}
	return nil
}

// planLayers records the plan.* metrics: the build, the lazy operator
// work of the first operation beyond a warm one of the same kind, and
// the plan's size.
func planLayers(rep *report, build, firstOp time.Duration, warmOpMS, footprint float64) {
	rep.set("plan.build_ms", ms(build))
	rep.set("plan.first_op_extra_ms", ms(firstOp)-warmOpMS)
	rep.set("plan.footprint_mb", footprint/(1<<20))
}

// allOps is every operation latency of the run, traced or not.
func allOps(rep *report) []float64 {
	return append(append([]float64(nil), rep.ops...), rep.traced...)
}

// runScreened solves the second-kind operator ½I + K/N of the screened
// Coulomb kernel on the surfaces of 8 spheres by lockstep GMRES over
// four right-hand sides, each solve a fresh set of seeded data. Eight
// spheres rather than 64: at N=8000, 64 spheres of radius 0.3 give a
// uniform octree without W and X lists.
func runScreened(ctx context.Context, cfg config, rep *report) error {
	const (
		n, degree, nrhs = 8000, 6, 4
		gmresTol        = 1e-8
		// residualTol bounds the true residual ||b - Ax|| / ||b||
		// recomputed after the solve.
		residualTol = 1e-7
	)
	pts := sphereSurfaces(rand.New(rand.NewSource(cfg.seed)), n, 2, 0.3)
	opt := kifmm.Options{Kernel: kifmm.ModLaplace(1), Degree: degree}
	x0 := densities(cfg.seed, 1, n)

	start := time.Now()
	ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, opt)
	if err != nil {
		return err
	}
	defer ev.Close()
	build := time.Since(start)
	first, err := ev.EvaluateCtx(ctx, x0[0])
	if err != nil {
		return err
	}
	rep.setup = time.Since(start)
	if cfg.setupOnly {
		return nil
	}

	refs, err := newDirectRefs(ctx, opt.Kernel, pts, x0, cfg.seed, cfg.corrupt)
	if err != nil {
		return err
	}
	e := refs.relErr(0, first)
	rep.attempt(e <= directTol, "screened operator application: relative error %.3g against direct summation", e)
	if cfg.full {
		if err := fullAccuracy(ctx, rep, opt.Kernel, pts, x0[0], first); err != nil {
			return err
		}
	}

	var (
		sh     treeShape
		traced bool
		sw     sweep
		matvec time.Duration
		calls  time.Duration // engine calls within matvec
		warm   time.Duration
	)
	if cfg.trace {
		if sh, err = shapeLayers(ctx, rep, pts); err != nil {
			return err
		}
		// A warm single application, the counterpart of the first one.
		s := time.Now()
		if _, err := ev.EvaluateCtx(ctx, x0[0]); err != nil {
			return err
		}
		warm = time.Since(s)
		pool := kifmm.DefaultPool()
		pool.SetAcquireObserver(leaseRecorder(rep))
		defer pool.SetAcquireObserver(nil)
	}
	apply := func(ctx context.Context, xs [][]float64) ([][]float64, error) {
		s := time.Now()
		var (
			pots [][]float64
			st   fmm.Stats
			root *obs.Span
			err  error
		)
		if traced {
			pots, st, root, err = ev.EvaluateBatchTracedCtx(ctx, xs)
		} else {
			pots, st, err = ev.EvaluateBatchStatsCtx(ctx, xs)
		}
		call := time.Since(s)
		if err != nil {
			return nil, err
		}
		for q, pot := range pots {
			for i := range pot {
				pot[i] = 0.5*xs[q][i] + pot[i]/n
			}
		}
		sw.add(st, root, sh, degree, len(xs))
		calls += call
		matvec += time.Since(s)
		return pots, nil
	}

	type solved struct {
		bs, xs    [][]float64
		converged bool
	}
	var done []solved
	t0 := rep.beginWindow()
	for i := 0; more(t0, cfg.window, rep.ops); i++ {
		bs := densities(cfg.seed*104729+int64(i), nrhs, n)
		xs := make([][]float64, nrhs)
		for q := range xs {
			xs[q] = make([]float64, n)
		}
		traced = cfg.trace && i%2 == 0
		sw, matvec, calls = sweep{}, 0, 0
		s := time.Now()
		res, err := kifmm.SolveGMRESBatchCtx(ctx, apply, bs, xs, kifmm.SolverOptions{Tol: gmresTol, Restart: 30})
		wall := time.Since(s)
		if err != nil {
			rep.attempt(false, "screened solve %d: %v", i, err)
			continue
		}
		rep.op(ms(wall), traced)
		conv, iters := true, 0
		for _, r := range res {
			conv = conv && r.Converged
			iters += r.Iterations
		}
		done = append(done, solved{bs, xs, conv})
		rep.sample("krylov.matvecs", float64(iters))
		if traced {
			sw.record(rep, sh)
			rep.sample("krylov.matvec_s", matvec.Seconds())
			rep.sample("krylov.overhead_ms", ms(wall-matvec))
			// Blocking path: the pass spans against the wall of the
			// engine calls they ran in. The Krylov time outside the
			// operator callbacks (krylov.overhead_ms) is a residual.
			rep.sample("obs.path_sum_ratio", sw.passes.Seconds()/calls.Seconds())
		}
	}
	rep.endWindow(t0)
	if cfg.trace {
		leaseLayers(rep)
		planLayers(rep, build, rep.setup-build, ms(warm), float64(ev.FootprintBytes()))
	}

	// True residuals of every solve, from one extra batched operator
	// application outside the window.
	traced = false
	var all [][]float64
	for _, d := range done {
		all = append(all, d.xs...)
	}
	if len(all) == 0 {
		return nil
	}
	ys, err := apply(ctx, all)
	if err != nil {
		return err
	}
	for j, d := range done {
		worst := 0.0
		for q := range d.bs {
			worst = max(worst, relL2(ys[j*nrhs+q], d.bs[q]))
		}
		rep.attempt(d.converged && worst <= residualTol, "screened solve %d: converged %v, true residual %.3g", j, d.converged, worst)
	}
	return nil
}

// sphereSurfaces places n points on g³ spheres of radius r centred on
// a regular grid in [-1,1]³ (the centres of kifmm.SpherePatches): a
// golden-spiral lattice on each sphere, turned by a seeded random
// rotation. Unlike the latitude-longitude sampling of SpherePatches it
// never puts two points nearly on top of each other, so the conditioning
// of the second-kind operator, and with it the GMRES iteration count,
// does not hinge on the closest pair a seed happens to draw.
func sphereSurfaces(rng *rand.Rand, n, g int, r float64) []float64 {
	per := n / (g * g * g)
	step := 2 / float64(g)
	golden := math.Pi * (3 - math.Sqrt(5))
	pts := make([]float64, 0, 3*per*g*g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			for k := 0; k < g; k++ {
				c := [3]float64{-1 + (float64(i)+0.5)*step, -1 + (float64(j)+0.5)*step, -1 + (float64(k)+0.5)*step}
				rot := randomRotation(rng)
				for m := 0; m < per; m++ {
					z := 1 - (2*float64(m)+1)/float64(per)
					s := math.Sqrt(1 - z*z)
					sn, cs := math.Sincos(golden * float64(m))
					p := [3]float64{s * cs, s * sn, z}
					for d := 0; d < 3; d++ {
						pts = append(pts, c[d]+r*(rot[d][0]*p[0]+rot[d][1]*p[1]+rot[d][2]*p[2]))
					}
				}
			}
		}
	}
	return pts
}

// randomRotation is the rotation of a uniformly random unit quaternion.
func randomRotation(rng *rand.Rand) [3][3]float64 {
	u1, u2, u3 := rng.Float64(), rng.Float64(), rng.Float64()
	a, b := math.Sqrt(1-u1), math.Sqrt(u1)
	w, x := a*math.Sin(2*math.Pi*u2), a*math.Cos(2*math.Pi*u2)
	y, z := b*math.Sin(2*math.Pi*u3), b*math.Cos(2*math.Pi*u3)
	return [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - z*w), 2 * (x*z + y*w)},
		{2 * (x*y + z*w), 1 - 2*(x*x+z*z), 2 * (y*z - x*w)},
		{2 * (x*z - y*w), 2 * (y*z + x*w), 1 - 2*(x*x+y*y)},
	}
}
