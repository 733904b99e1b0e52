// Package parfmm implements the paper's parallel algorithm (Section 3):
// Morton-curve partitioning of input surface patches, level-by-level
// construction of the global tree array via MPI_Allreduce, local
// essential trees with contributor/owner/user roles, and the
// gather/scatter ghost exchange of Algorithm 1. The computation is not
// parfmm's own: each rank runs the fmm engine's passes (fmm.Sweep) over
// its local essential tree without synchronization ("a processor
// performs its own computation ignoring the existence of other
// processors"), with the exchanges in between. One evaluation is, by
// the rank's virtual-time span names (which internal/harness and the
// cluster coordinator read):
//
//	source_gather     post local leaf sources to their owners
//	upward            Up: partial upward densities of the local sources
//	source_exchange   owners combine and scatter global leaf sources
//	density_gather    post partial upward densities to their owners
//	down_ux           Near: U and X lists over the ghost sources
//	density_exchange  owners sum and scatter global upward densities
//	down_vw_local     Far and Leaf: V lists, L2L, inversion, W lists, L2T
//
// As in the paper's experiments, the source and target point sets are
// identical.
package parfmm

import (
	"context"
	"strconv"
	"time"

	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/morton"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/surface"
	"repro/internal/tree"
)

// Options configure a parallel evaluation.
type Options struct {
	// Kernel is the interaction kernel (required).
	Kernel kernels.Kernel
	// Degree is the equivalent-surface degree p (default 6).
	Degree int
	// MaxPoints is the leaf threshold s (default 60).
	MaxPoints int
	// MaxDepth caps the octree depth.
	MaxDepth int
	// Backend selects the M2L path (default fmm.M2LFFT).
	Backend fmm.M2LBackend
	// PinvTol is the pseudo-inverse truncation (default 1e-10).
	PinvTol float64
	// Machine is the communication model (default mpi.DefaultMachine).
	Machine mpi.Machine
	// Iterations repeats the interaction evaluation (the paper reports a
	// single interaction averaged over several iterations). Default 1.
	Iterations int
	// PatchWeights, when non-nil (one entry per patch), replaces the
	// particle-count weights of the Morton partitioning. The paper's
	// discussion proposes exactly this: "we plan to use workload
	// information from previous time steps for load balancing" — pass a
	// previous Result.PatchWork here.
	PatchWeights []int64
	// Trace records per-rank span timelines and the communication
	// ledger (every send/recv/collective with virtual timestamps and
	// wait times) and merges them into Result.Timeline. The ledger
	// observer and span bookkeeping run on the rank goroutines, so the
	// virtual clocks absorb a small tracing overhead.
	Trace bool
}

// RankStats records one rank's virtual-time breakdown, matching the
// stages of the paper's Figures 4.2/4.3.
type RankStats struct {
	// TreeTime is the virtual time of partitioning plus tree
	// construction, including its collectives ("Gen/Comm" in the tables).
	TreeTime time.Duration
	// Total is the virtual time of one interaction evaluation.
	Total time.Duration
	// Comm is the communication part of Total.
	Comm time.Duration
	// Stats breaks down the compute stages (Up, DownU/V/W/X, Eval).
	Stats fmm.Stats
	// BytesSent counts payload bytes this rank sent during evaluation.
	BytesSent int64
}

// Result of a parallel evaluation.
type Result struct {
	// Pot holds the potentials in the order of geom.Flatten(patches).
	Pot []float64
	// Ranks holds per-rank statistics (averaged over Iterations).
	Ranks []RankStats
	// Boxes is the global tree size, Depth its level count.
	Boxes, Depth int
	// PatchWork estimates the interaction work (flops) attributable to
	// each input patch, usable as Options.PatchWeights of a subsequent
	// evaluation (the paper's proposed time-step-to-time-step load
	// balancing).
	PatchWork []int64
	// MaxElapsed is the simulated wall clock of the whole run — tree
	// construction, warm-up and timed iterations — i.e. mpi.MaxElapsed
	// over the rank communicators.
	MaxElapsed time.Duration
	// Timeline is the merged distributed timeline (per-rank span trees
	// plus the communication ledger); nil unless Options.Trace.
	Timeline *obs.Timeline
}

// MaxTotal returns the slowest rank's interaction time — the simulated
// wall clock T(P) of the run.
func (r *Result) MaxTotal() time.Duration {
	var m time.Duration
	for _, s := range r.Ranks {
		if s.Total > m {
			m = s.Total
		}
	}
	return m
}

// Ratio returns the paper's load-imbalance indicator: the ratio of the
// maximum to the minimum per-rank interaction time.
func (r *Result) Ratio() float64 {
	if len(r.Ranks) == 0 {
		return 1
	}
	min, max := r.Ranks[0].Total, r.Ranks[0].Total
	for _, s := range r.Ranks[1:] {
		if s.Total < min {
			min = s.Total
		}
		if s.Total > max {
			max = s.Total
		}
	}
	if min <= 0 {
		return 1
	}
	return float64(max) / float64(min)
}

// Evaluate runs the parallel KIFMM on nproc simulated ranks. patches are
// the input surfaces (partitioned by weighted Morton order, Section 3.1);
// den holds SourceDim density components per point in the order of
// geom.Flatten(patches).
func Evaluate(patches []geom.Patch, den []float64, nproc int, opt Options) (*Result, error) {
	eopt, err := opt.engine()
	if err != nil {
		return nil, err
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 1
	}
	if opt.Machine == (mpi.Machine{}) {
		opt.Machine = mpi.DefaultMachine()
	}
	if nproc < 1 {
		return nil, errs.New(errs.CodeInvalidInput, "parfmm: need at least one rank")
	}
	sd := eopt.Kernel.SourceDim()
	total := geom.TotalCount(patches)
	if len(den) != total*sd {
		return nil, errs.Newf(errs.CodeInvalidInput, "parfmm: density length %d, want %d", len(den), total*sd)
	}
	if opt.PatchWeights != nil && len(opt.PatchWeights) != len(patches) {
		return nil, errs.Newf(errs.CodeInvalidInput, "parfmm: PatchWeights length %d, want %d", len(opt.PatchWeights), len(patches))
	}
	for i := range patches {
		if err := tree.CheckCoordinates("patch "+strconv.Itoa(i), patches[i].Points); err != nil {
			return nil, err
		}
	}

	// Partition whole patches along the Morton curve, weighted by count.
	// The cube for partitioning keys is the bounding cube of the patch
	// centers; only relative order matters.
	items := make([]morton.Weighted, len(patches))
	centers := make([]float64, 0, 3*len(patches))
	for i := range patches {
		centers = append(centers, patches[i].Center[0], patches[i].Center[1], patches[i].Center[2])
	}
	cc, chw := geom.BoundingCube(centers)
	for i := range patches {
		w := int64(patches[i].Count())
		if opt.PatchWeights != nil {
			w = opt.PatchWeights[i]
			if w < 1 {
				w = 1
			}
		}
		items[i] = morton.Weighted{
			Key:    morton.PointKey(patches[i].Center[0], patches[i].Center[1], patches[i].Center[2], cc, chw),
			Weight: w,
			Index:  i,
		}
	}
	parts := morton.Partition(items, nproc)

	// Patch start offsets in the flattened global order.
	starts := make([]int, len(patches)+1)
	for i := range patches {
		starts[i+1] = starts[i] + patches[i].Count()
	}

	inputs := make([]*RankInput, nproc)
	for r := 0; r < nproc; r++ {
		in := &RankInput{}
		for _, pi := range parts[r] {
			in.Pts = append(in.Pts, patches[pi].Points...)
			for j := 0; j < patches[pi].Count(); j++ {
				g := starts[pi] + j
				in.GlobalIdx = append(in.GlobalIdx, int32(g))
				in.Den = append(in.Den, den[g*sd:(g+1)*sd]...)
			}
		}
		inputs[r] = in
	}

	td := eopt.Kernel.TargetDim()
	pot := make([]float64, total*td)
	pointWork := make([]int64, total)
	stats := make([]RankStats, nproc)
	treeBoxes := make([]int, nproc)
	treeDepth := make([]int, nproc)
	timelines := make([]*obs.RankTimeline, nproc)
	rankErrs := make([]error, nproc)

	// Simulated ranks run to completion by design (mpi.Run): a rank
	// failing alone would leave its peers blocked in a collective, which
	// is why the options are checked above, before any rank starts.
	ctx := context.Background() //lint:allow ctxfirst simulated ranks run to completion by design; mpi.Run cannot stop them part-way
	comms := mpi.Run(nproc, opt.Machine, func(c *mpi.Comm) {
		rk := &rank{c: c, in: inputs[c.Rank()], opt: eopt}
		defer rk.close()
		rankErrs[c.Rank()] = rk.simulate(ctx, opt, &stats[c.Rank()])
		if rankErrs[c.Rank()] != nil {
			return
		}
		timelines[c.Rank()] = rk.tl
		treeBoxes[c.Rank()] = len(rk.tree.Boxes)
		treeDepth[c.Rank()] = rk.tree.Depth()
		// Write local potentials and per-point work estimates into the
		// shared result (serialized by the token; indices are disjoint
		// across ranks).
		work := rk.pointWorkEstimate()
		for i, g := range rk.in.GlobalIdx {
			copy(pot[int(g)*td:(int(g)+1)*td], rk.pot[i*td:(i+1)*td])
			pointWork[g] = work[i]
		}
		rk.tl.Close(c.Elapsed())
	})
	for _, err := range rankErrs {
		if err != nil {
			return nil, err
		}
	}

	// Aggregate point work into per-patch totals.
	patchWork := make([]int64, len(patches))
	for pi := range patches {
		for j := starts[pi]; j < starts[pi+1]; j++ {
			patchWork[pi] += pointWork[j]
		}
	}

	res := &Result{
		Pot: pot, Ranks: stats, Boxes: treeBoxes[0], Depth: treeDepth[0],
		PatchWork: patchWork, MaxElapsed: mpi.MaxElapsed(comms),
	}
	if opt.Trace {
		res.Timeline = obs.MergeTimeline(timelines)
	}
	return res, nil
}

// simulate runs one simulated rank: set-up, an untimed warm-up
// evaluation, then the timed iterations, recording the rank's virtual
// time breakdown into st.
func (rk *rank) simulate(ctx context.Context, opt Options, st *RankStats) error {
	c := rk.c
	if err := rk.setup(ctx, opt.Trace); err != nil {
		return err
	}
	st.TreeTime = c.Elapsed()

	// Untimed warm-up evaluation: the translation operators, FFT tensors
	// and M2L plans are built lazily on first use, and the paper's
	// timings (like any FMM production setting, where the same tree
	// serves tens of interaction evaluations) exclude that setup cost.
	// The measured iterations below see only steady-state work.
	sp := rk.beginSpan("warmup")
	err := rk.evaluate(ctx)
	rk.endSpan(sp)
	if err != nil {
		return err
	}

	var totalT, commT time.Duration
	var bytes int64
	for it := 0; it < opt.Iterations; it++ {
		t0 := c.Elapsed()
		c0 := c.CommTime()
		b0 := c.BytesSent()
		sp = rk.beginSpan("iteration")
		sp.SetAttr("iter", strconv.Itoa(it))
		err := rk.evaluate(ctx)
		rk.endSpan(sp)
		if err != nil {
			return err
		}
		totalT += c.Elapsed() - t0
		commT += c.CommTime() - c0
		bytes += c.BytesSent() - b0
		st.Stats.Add(rk.stats)
	}
	n := time.Duration(opt.Iterations)
	st.Total = totalT / n
	st.Comm = commT / n
	st.BytesSent = bytes / int64(opt.Iterations)
	return nil
}

// engine returns the FMM engine options: the fields Options shares with
// fmm.Options, defaulted by fmm.ApplyDefaults (so MaxPoints <= 0 means
// 60 here as there). It rejects what would fail inside every rank — a
// missing kernel, a degree the operators cannot be built for — before
// any rank starts.
func (o Options) engine() (fmm.Options, error) {
	if o.Kernel == nil {
		return fmm.Options{}, errs.New(errs.CodeInvalidInput, "parfmm: Options.Kernel is required")
	}
	e := fmm.ApplyDefaults(fmm.Options{
		Kernel: o.Kernel, Degree: o.Degree, MaxPoints: o.MaxPoints,
		MaxDepth: o.MaxDepth, Backend: o.Backend, PinvTol: o.PinvTol,
	})
	if _, err := surface.New(e.Degree); err != nil {
		return fmm.Options{}, errs.Typed(err, errs.CodeInvalidInput)
	}
	return e, nil
}
