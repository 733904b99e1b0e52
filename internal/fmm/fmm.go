// Package fmm implements the adaptive kernel-independent FMM (paper
// Section 2) as four passes in dependency order (see Sweep):
//
//   - up: upward equivalent densities (S2M at leaves, M2M up the tree);
//   - near: the U list (direct interactions) and the X list (S2L onto
//     downward check surfaces), which need only source data;
//   - far: per level, the V list (M2L), L2L from the parent and the
//     inversion into downward equivalent densities, which need the
//     upward densities;
//   - leaf: the W list (M2T) and the local expansion (L2T).
//
// A single-node evaluation runs them back to back on the tree's own
// data; a parallel rank (internal/parfmm) runs the same passes on its
// local essential tree, with its ghost exchanges in between.
//
// Every pass decomposes into independent per-box work synchronized only
// at level boundaries — the observation the paper's parallel algorithm
// rests on — so the engine fans each level out over worker lanes leased
// per call from a shared elastic pool (internal/exec): an evaluation on
// an idle process runs as wide as Options.Workers allows, degrades
// toward a floor under concurrent load, and sheds lanes mid-run as
// competitors arrive — without ever changing its bitwise result.
// Evaluation is read-only on the prepared plan (tree + operators): one
// Evaluator serves concurrent callers.
// Multi-RHS batching (EvaluateBatch) amortizes tree traversal and
// near-field kernel evaluations across many density vectors, the shape
// Krylov solvers and the evaluation service need.
//
// The engine records per-stage compute time and flop counts matching the
// stages the paper charts in Figures 4.2/4.3 (Up, DownU, DownV, DownW,
// DownX, Eval).
//
// Construction and evaluation are context-first (NewCtx, EvaluateCtx and
// friends): the context is threaded through every pass, checked at each
// dispatch and level barrier and between chunk claims inside a pass, so
// a cancellation or deadline aborts the sweep within one pass and
// surfaces as a typed error (errs.ErrCanceled / errs.ErrDeadlineExceeded,
// both also satisfying the standard context sentinels). The ctx-free
// entry points are thin context.Background() wrappers.
package fmm

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/morton"
	"repro/internal/obs"
	"repro/internal/translate"
	"repro/internal/tree"
)

// M2LBackend selects how V-list translations are computed.
type M2LBackend int

const (
	// M2LFFT uses the Fourier-space convolution path (the paper's
	// default; footnote 5 notes direct evaluation has higher flop rates
	// but loses algorithmically).
	M2LFFT M2LBackend = iota
	// M2LDense applies cached dense translation matrices.
	M2LDense
)

// Options configure an Evaluator.
type Options struct {
	// Kernel is the interaction kernel (required).
	Kernel kernels.Kernel
	// Degree is the equivalent-surface degree p (default 6, ~1e-5
	// relative error for the Laplace kernel; use 8 for ~1e-7).
	Degree int
	// MaxPoints is the leaf threshold s (default 60, the paper's usual
	// value; its largest runs use 120).
	MaxPoints int
	// MaxDepth caps the octree depth.
	MaxDepth int
	// Backend selects the M2L path (default M2LFFT).
	Backend M2LBackend
	// PinvTol is the pseudo-inverse truncation (default 1e-10).
	PinvTol float64
	// Workers is the widest a single evaluation may fan its per-box
	// work out (default GOMAXPROCS; 1 forces the sequential path). It
	// is a ceiling, not a fixed width: the actual width of each call is
	// resolved at EvaluateCtx time by leasing lanes from the shared
	// elastic pool — up to Workers on an idle pool, degrading under
	// concurrent load, shrinking mid-run as competitors arrive. Results
	// are bitwise identical for every granted width: each box's
	// floating-point accumulation order is fixed, and lanes only
	// partition boxes. Workers does not affect what an evaluator
	// computes, so plan identity (kifmm.PlanKey) excludes it.
	Workers int
	// Pool is the elastic lane pool evaluations lease their width from
	// (nil selects the process-wide default, sized GOMAXPROCS).
	// Evaluators sharing a pool — e.g. every plan of the evaluation
	// service — share one scheduling domain: admission and per-call
	// width are decided across all of them. Like Workers, Pool cannot
	// change what an evaluator computes and is excluded from plan
	// identity.
	Pool *exec.Elastic
}

// Stats aggregates per-stage compute times and flop counts of one
// evaluation, mirroring the stage breakdown of the paper's Figures
// 4.2/4.3. Durations are summed across workers (aggregate compute time):
// with Workers=1 they match wall clock; with more workers the wall time
// of a stage is roughly its duration divided by the achieved speedup.
type Stats struct {
	Up, DownU, DownV, DownW, DownX, Eval time.Duration
	FlopsUp, FlopsDownU, FlopsDownV,
	FlopsDownW, FlopsDownX, FlopsEval int64
	// Lanes is the worker-lane width this evaluation was granted at
	// admission by the elastic pool (1 on the sequential path). It is
	// run-level, not a per-stage accumulator, so Add leaves it alone.
	Lanes int
}

// Total returns the summed compute time of all stages.
func (s Stats) Total() time.Duration {
	return s.Up + s.DownU + s.DownV + s.DownW + s.DownX + s.Eval
}

// Flops returns the total flop count.
func (s Stats) Flops() int64 {
	return s.FlopsUp + s.FlopsDownU + s.FlopsDownV + s.FlopsDownW + s.FlopsDownX + s.FlopsEval
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Up += o.Up
	s.DownU += o.DownU
	s.DownV += o.DownV
	s.DownW += o.DownW
	s.DownX += o.DownX
	s.Eval += o.Eval
	s.FlopsUp += o.FlopsUp
	s.FlopsDownU += o.FlopsDownU
	s.FlopsDownV += o.FlopsDownV
	s.FlopsDownW += o.FlopsDownW
	s.FlopsDownX += o.FlopsDownX
	s.FlopsEval += o.FlopsEval
}

// Evaluator computes potentials induced by source densities. Build once,
// evaluate many times (the paper's applications run tens to hundreds of
// interaction evaluations per tree). Evaluation does not mutate the plan
// state, so a single Evaluator is safe for concurrent Evaluate calls.
type Evaluator struct {
	Tree *tree.Tree
	Ops  *translate.Set
	opt  Options
	fft  *translate.FFTM2L
	pool *exec.Elastic

	// m2l holds the per-level FFT-M2L plans (index = level), built on
	// the first FFT evaluation: they depend only on the tree.
	m2lMu sync.Mutex
	m2l   []*translate.M2LLevel

	// statsMu guards stats, the breakdown of the most recent completed
	// evaluation (concurrent callers race benignly: last writer wins).
	statsMu sync.Mutex
	stats   Stats

	closeOnce sync.Once
}

// ApplyDefaults fills zero-valued options with the paper-matching
// defaults (degree 6, leaf threshold 60, pinv tolerance 1e-10, one
// worker per logical CPU). It is the single source of truth for
// defaulting: New and FromTree apply it, and the plan-key hashing in the
// root package uses it so that options which build identical evaluators
// identify the same plan. For that reason it mirrors the exact coercion
// rules of the downstream construction: tree.Build treats MaxPoints <= 0
// as 60 and clamps MaxDepth to (0, morton.MaxLevel], and
// translate.NewSet treats PinvTol <= 0 as 1e-10. (Negative Degree is not
// coerced anywhere; it fails surface construction and never produces an
// evaluator. Workers is machine-dependent and never hashed.)
func ApplyDefaults(opt Options) Options {
	if opt.Degree == 0 {
		opt.Degree = 6
	}
	if opt.MaxPoints <= 0 {
		opt.MaxPoints = 60
	}
	if opt.MaxDepth <= 0 || opt.MaxDepth > morton.MaxLevel {
		opt.MaxDepth = morton.MaxLevel
	}
	if opt.PinvTol <= 0 {
		opt.PinvTol = 1e-10
	}
	// Every backend other than M2LFFT takes the dense path (FromTree
	// only checks == M2LFFT), so out-of-range values collapse onto
	// M2LDense and hash identically to it.
	if opt.Backend != M2LFFT {
		opt.Backend = M2LDense
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	// Pool, like Workers, is scheduling policy: left alone here (nil
	// resolves to the process default at construction) and never hashed.
	return opt
}

// defaultPool is the process-wide elastic lane pool evaluators without
// an explicit Options.Pool share, sized to the machine. One pool per
// process is the point: concurrent evaluations of unrelated plans still
// negotiate their widths against each other instead of oversubscribing
// the cores.
var (
	defaultPoolOnce sync.Once
	defaultPool     *exec.Elastic
)

// DefaultPool returns the process-wide elastic pool (capacity
// GOMAXPROCS at first use).
func DefaultPool() *exec.Elastic {
	defaultPoolOnce.Do(func() { defaultPool = exec.NewElastic(0) })
	return defaultPool
}

// New builds the octree over src and trg (flat x,y,z slices, which may be
// the same set, as in the paper's experiments) and prepares the
// translation operators. It is NewCtx with context.Background().
func New(src, trg []float64, opt Options) (*Evaluator, error) {
	return NewCtx(context.Background(), src, trg, opt) //lint:allow ctxfirst documented legacy ctx-free wrapper over the Ctx API
}

// NewCtx is the context-aware plan build: ctx is checked before and
// after the expensive stages and inside the octree construction's
// per-level loops (tree.BuildCtx), so an impatient caller abandons even
// a pathological tree build within one level.
func NewCtx(ctx context.Context, src, trg []float64, opt Options) (*Evaluator, error) {
	if opt.Kernel == nil {
		return nil, errs.New(errs.CodeInvalidInput, "fmm: Options.Kernel is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.FromContext(err)
	}
	opt = ApplyDefaults(opt)
	tr, err := tree.BuildCtx(ctx, src, trg, tree.Config{MaxPoints: opt.MaxPoints, MaxDepth: opt.MaxDepth})
	if err != nil {
		// Cancellation keeps its typed code; anything else the tree
		// rejected is malformed input.
		return nil, errs.Typed(errs.FromContext(err), errs.CodeInvalidInput)
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.FromContext(err)
	}
	return FromTree(tr, opt)
}

// FromTree prepares an evaluator over an existing octree: New's tree, or
// a parallel rank's local essential tree, which the rank assembles from
// the global tree construction (paper Section 3.1).
func FromTree(tr *tree.Tree, opt Options) (*Evaluator, error) {
	opt = ApplyDefaults(opt)
	ops, err := translate.NewSet(opt.Kernel, opt.Degree, tr.HalfWidth, opt.PinvTol)
	if err != nil {
		return nil, errs.Typed(err, errs.CodeInvalidInput)
	}
	pool := opt.Pool
	if pool == nil {
		pool = DefaultPool()
	}
	e := &Evaluator{Tree: tr, Ops: ops, opt: opt, pool: pool}
	if opt.Backend == M2LFFT {
		e.fft = translate.NewFFTM2L(ops)
	}
	return e, nil
}

// Workers returns the width ceiling of one evaluation: the widest lane
// lease a call of this evaluator can be granted (Options.Workers
// clamped to the pool capacity). The actual width of each call is
// decided at evaluation time by the pool's load; Stats.Lanes reports
// what a specific call was granted.
func (e *Evaluator) Workers() int {
	if e.opt.Workers < e.pool.Cap() {
		return e.opt.Workers
	}
	return e.pool.Cap()
}

// Stats returns the stage breakdown of the most recently completed
// evaluation (with concurrent callers, the last one to finish).
func (e *Evaluator) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// FootprintBytes estimates the resident memory of this prepared plan:
// the octree (points, permutations, boxes, interaction lists) plus this
// plan's share of the translation operators and FFT kernel tensors
// currently cached for its kernel/degree/geometry. Operator caches are
// shared process-wide and refcounted: N live plans sharing an operator
// set each attribute 1/N of its bytes, so a byte-bounded plan cache
// summing FootprintBytes across plans counts every shared byte exactly
// once (the pre-refcount behavior attributed them once per plan). The
// estimate is live — it grows as lazily built operators appear and
// redistributes when sharing plans are closed.
func (e *Evaluator) FootprintBytes() int64 {
	b := e.Tree.MemoryBytes()
	b += e.Ops.CachedBytes()
	if e.fft != nil {
		b += e.fft.CachedBytes()
		e.m2lMu.Lock()
		for _, lv := range e.m2l {
			if lv != nil {
				b += lv.Bytes()
			}
		}
		e.m2lMu.Unlock()
	}
	return b
}

// Close releases this plan's refcounted claim on the process-global
// operator and FFT tensor caches. Accounting only: the caches keep
// their entries and a closed evaluator remains fully usable (an evicted
// service plan finishes its in-flight evaluations) — the shared bytes
// are simply attributed to the plans still open. Idempotent.
func (e *Evaluator) Close() {
	e.closeOnce.Do(func() {
		e.Ops.Close()
		if e.fft != nil {
			e.fft.Close()
		}
	})
}

// Evaluate computes pot[i] = Σ_j G(trg_i, src_j) den_j for all targets.
// den holds SourceDim components per source in the original input order;
// the result has TargetDim components per target in input order.
func (e *Evaluator) Evaluate(den []float64) ([]float64, error) {
	pot, _, err := e.EvaluateStatsCtx(context.Background(), den) //lint:allow ctxfirst documented legacy ctx-free wrapper over the Ctx API
	return pot, err
}

// EvaluateCtx is Evaluate under a context: a cancellation or deadline
// aborts the sweep within one pass and returns a typed error satisfying
// both errs.ErrCanceled (or ErrDeadlineExceeded) and the matching
// context sentinel.
func (e *Evaluator) EvaluateCtx(ctx context.Context, den []float64) ([]float64, error) {
	pot, _, err := e.EvaluateStatsCtx(ctx, den)
	return pot, err
}

// EvaluateStats is Evaluate returning this call's stage breakdown
// directly, so concurrent callers get their own stats instead of racing
// on Stats().
func (e *Evaluator) EvaluateStats(den []float64) ([]float64, Stats, error) {
	return e.EvaluateStatsCtx(context.Background(), den) //lint:allow ctxfirst documented legacy ctx-free wrapper over the Ctx API
}

// EvaluateStatsCtx is EvaluateCtx returning this call's stage breakdown.
func (e *Evaluator) EvaluateStatsCtx(ctx context.Context, den []float64) ([]float64, Stats, error) {
	pots, st, err := e.evaluate(ctx, [][]float64{den}, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return pots[0], st, nil
}

// EvaluateBatch evaluates several density vectors against the same plan
// in one sweep, amortizing tree traversal, operator fetches and —
// dominating the near field — per-pair kernel evaluations across the
// batch (U/W/X/S2M interactions materialize each kernel block once and
// apply it to every right-hand side). Results match per-vector Evaluate
// calls to accumulation-order rounding.
func (e *Evaluator) EvaluateBatch(dens [][]float64) ([][]float64, error) {
	pots, _, err := e.evaluate(context.Background(), dens, nil) //lint:allow ctxfirst documented legacy ctx-free wrapper over the Ctx API
	return pots, err
}

// EvaluateBatchCtx is EvaluateBatch under a context; see EvaluateCtx.
func (e *Evaluator) EvaluateBatchCtx(ctx context.Context, dens [][]float64) ([][]float64, error) {
	pots, _, err := e.evaluate(ctx, dens, nil)
	return pots, err
}

// EvaluateBatchStats is EvaluateBatch returning the aggregate stage
// breakdown of the whole batch.
func (e *Evaluator) EvaluateBatchStats(dens [][]float64) ([][]float64, Stats, error) {
	return e.evaluate(context.Background(), dens, nil) //lint:allow ctxfirst documented legacy ctx-free wrapper over the Ctx API
}

// EvaluateBatchStatsCtx is EvaluateBatchCtx returning the aggregate
// stage breakdown of the whole batch.
func (e *Evaluator) EvaluateBatchStatsCtx(ctx context.Context, dens [][]float64) ([][]float64, Stats, error) {
	return e.evaluate(ctx, dens, nil)
}

// EvaluateBatchTracedCtx is EvaluateBatchStatsCtx plus a trace: the
// returned span tree records wall-clock intervals for the evaluation
// (root), each pass (permute / up / down / leaf / unpermute) and each
// tree level within the up and down passes. Pass spans measure wall
// time of the whole parallel sweep, whereas Stats stages sum compute
// time across lanes — the two agree only at width 1. The tree is
// finished (every span ended) and owned by the caller; on error the
// span tree is nil. Tracing costs a handful of small allocations per
// call.
func (e *Evaluator) EvaluateBatchTracedCtx(ctx context.Context, dens [][]float64) ([][]float64, Stats, *obs.Span, error) {
	root := obs.StartSpan("evaluate")
	pots, st, err := e.evaluate(ctx, dens, root)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	return pots, st, root, nil
}

// Sweep is one evaluation in flight. Its passes follow the paper's
// dependency order and are called one at a time, so a parallel rank can
// run its ghost exchanges between them (paper Section 3: each processor
// runs the sequential passes on its local essential tree):
//
//   - Up: S2M at the leaves, M2M up the tree, from the tree's own
//     sources. It returns the upward equivalent densities.
//   - Near: the U list (direct, into the potentials) and the X list
//     (S2L, into the downward check potentials). It needs only leaf
//     source data.
//   - Far: level by level, the V list (M2L), L2L from the parent and the
//     inversion into downward equivalent densities. It needs the upward
//     densities of every box the V lists name.
//   - Leaf: the W list (M2T) and the local expansion (L2T).
//
// A single-node evaluation feeds Near the tree's own sources and Far the
// densities Up returned; a rank feeds them the global data its exchanges
// gathered. The sweep reads the Evaluator and writes only itself, which
// is what makes concurrent evaluations of one plan safe.
type Sweep struct {
	e    *Evaluator
	pool *exec.Lease
	nrhs int

	sd, td, ne, nc int

	pdens  [][]float64 // per-RHS densities, Morton order
	ppots  [][]float64 // per-RHS potentials, Morton order
	phiU   [][]float64 // per-box upward equivalent densities of the own sources (nrhs*ne)
	phiG   [][]float64 // per-box upward densities Far and Leaf read (nrhs*ne)
	phiD   [][]float64 // per-box downward equivalent densities (nrhs*ne)
	checks [][]float64 // per-box downward check potentials (nrhs*nc)

	ws []scratch // per-worker scratch and stats
}

// scratch is one worker's private buffers; ForRange hands every
// invocation a stable worker id, so no locks are needed.
type scratch struct {
	stats Stats
	check []float64
	pts   []float64
	mat   []float64
	m2l   translate.M2LScratch
}

func (sc *scratch) checkBuf(n int) []float64 {
	if cap(sc.check) < n {
		sc.check = make([]float64, n)
	}
	return sc.check[:n]
}

func (sc *scratch) ptsBuf(n int) []float64 {
	if cap(sc.pts) < n {
		sc.pts = make([]float64, n)
	}
	return sc.pts[:n]
}

func (sc *scratch) matBuf(n int) []float64 {
	if cap(sc.mat) < n {
		sc.mat = make([]float64, n)
	}
	return sc.mat[:n]
}

// evaluate is the engine shared by all Evaluate variants: Begin, the
// four passes on the tree's own data, Finish. The up, down (Near, then
// Far) and leaf passes each get a span under root, which when non-nil
// collects a per-pass wall-clock span tree (nil costs nothing — every
// span method is nil-safe). On cancellation the current pass drains at
// its barrier, the partially written sweep is discarded, and the typed
// cancellation error is returned (the most recent *completed*
// evaluation's stats are left untouched).
func (e *Evaluator) evaluate(ctx context.Context, dens [][]float64, root *obs.Span) ([][]float64, Stats, error) {
	s, err := e.Begin(ctx, dens, root)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Release()
	sp := root.StartChild("up")
	phi, err := s.Up(ctx, sp)
	sp.End()
	if err == nil {
		sp = root.StartChild("down")
		if err = s.Near(ctx, nil, nil); err == nil {
			err = s.Far(ctx, phi, sp)
		}
		sp.End()
	}
	if err == nil {
		sp = root.StartChild("leaf")
		err = s.Leaf(ctx)
		sp.End()
	}
	if err != nil {
		return nil, Stats{}, err
	}
	pots, st, err := s.Finish(ctx, root)
	if err != nil {
		return nil, Stats{}, err
	}
	root.End()
	return pots, st, nil
}

// Begin admits one evaluation of dens (SourceDim components per source,
// input order, one vector per right-hand side). The call's worker-lane
// width is resolved here, not at plan time: a lease is acquired from the
// evaluator's pool (under saturation this is where a call queues,
// honoring ctx) and every pass fans out under it, shrinking at
// chunk-claim boundaries if lanes are revoked mid-run and growing back
// at pass boundaries when the pool drains. Begin then permutes the
// densities into Morton order. root, when non-nil, gets the call's
// attributes and the "permute" span. The caller runs Up, Near, Far,
// Leaf and Finish in that order and must Release the sweep.
func (e *Evaluator) Begin(ctx context.Context, dens [][]float64, root *obs.Span) (*Sweep, error) {
	k := e.opt.Kernel
	sd, td := k.SourceDim(), k.TargetDim()
	t := e.Tree
	nSrc := len(t.SrcPoints) / 3
	nTrg := len(t.TrgPoints) / 3
	if len(dens) == 0 {
		return nil, errs.New(errs.CodeInvalidInput, "fmm: evaluation needs at least one density vector")
	}
	for q, den := range dens {
		if len(den) != nSrc*sd {
			if len(dens) == 1 {
				return nil, errs.Newf(errs.CodeInvalidInput, "fmm: density length %d, want %d", len(den), nSrc*sd)
			}
			return nil, errs.Newf(errs.CodeInvalidInput, "fmm: density %d length %d, want %d", q, len(den), nSrc*sd)
		}
	}
	lease, err := e.pool.Acquire(ctx, e.opt.Workers)
	if err != nil {
		return nil, errs.FromContext(err)
	}
	s := &Sweep{
		e: e, pool: lease, nrhs: len(dens),
		sd: sd, td: td, ne: e.Ops.EquivCount(), nc: e.Ops.CheckCount(),
		pdens: make([][]float64, len(dens)),
		ppots: make([][]float64, len(dens)),
		// Scratch is sized off the lease ceiling, not the granted
		// width: a shrunken call can fan back out at a pass boundary.
		ws: make([]scratch, lease.MaxWidth()),
	}
	root.SetAttr("rhs", strconv.Itoa(s.nrhs))
	root.SetAttr("granted_lanes", strconv.Itoa(lease.Granted()))
	// Permute densities into Morton order (fanned out across the batch).
	sp := root.StartChild("permute")
	err = lease.ForRange(ctx, 0, s.nrhs, func(_, q int) {
		p := make([]float64, nSrc*sd)
		for i, orig := range t.SrcPerm {
			o := int(orig)
			copy(p[i*sd:(i+1)*sd], dens[q][o*sd:(o+1)*sd])
		}
		s.pdens[q] = p
		s.ppots[q] = make([]float64, nTrg*td)
	})
	sp.End()
	if err != nil {
		lease.Release()
		return nil, errs.FromContext(err)
	}
	return s, nil
}

// Release returns the sweep's lanes to the pool. Idempotent; not while
// a pass runs.
func (s *Sweep) Release() { s.pool.Release() }

// Density returns the densities of right-hand side q at box bi's own
// sources, in Morton order.
func (s *Sweep) Density(q int, bi int32) []float64 {
	b := &s.e.Tree.Boxes[bi]
	return s.pdens[q][b.SrcStart*s.sd : (b.SrcStart+b.SrcCount)*s.sd]
}

// Finish un-permutes the potentials into input order (TargetDim
// components per target) and returns them with the call's stage
// breakdown, which also becomes the evaluator's Stats. root, when
// non-nil, gets the "unpermute" span.
func (s *Sweep) Finish(ctx context.Context, root *obs.Span) ([][]float64, Stats, error) {
	t := s.e.Tree
	td := s.td
	pots := make([][]float64, s.nrhs)
	sp := root.StartChild("unpermute")
	err := s.pool.ForRange(ctx, 0, s.nrhs, func(_, q int) {
		pot := make([]float64, len(s.ppots[q]))
		for i, orig := range t.TrgPerm {
			o := int(orig)
			copy(pot[o*td:(o+1)*td], s.ppots[q][i*td:(i+1)*td])
		}
		pots[q] = pot
	})
	sp.End()
	if err != nil {
		return nil, Stats{}, errs.FromContext(err)
	}
	var st Stats
	for i := range s.ws {
		st.Add(s.ws[i].stats)
	}
	st.Lanes = s.pool.Granted()
	s.e.statsMu.Lock()
	s.e.stats = st
	s.e.statsMu.Unlock()
	return pots, st, nil
}

// sources returns box a's source positions and per-RHS densities: the
// caller's copies when pos is non-nil, else the tree's own.
func (s *Sweep) sources(a int32, pos, den [][]float64) ([]float64, func(q int) []float64) {
	if pos != nil {
		return pos[a], sliceAt(den[a], len(den[a])/s.nrhs)
	}
	return s.e.Tree.SrcSlice(a), func(q int) []float64 { return s.Density(q, a) }
}

// sliceAt returns the per-RHS views of an rhs-major buffer with the
// given per-RHS stride.
func sliceAt(buf []float64, stride int) func(q int) []float64 {
	return func(q int) []float64 { return buf[q*stride : (q+1)*stride] }
}

// addP2P accumulates the direct interaction of one (targets, sources)
// pair into dst(q) for every right-hand side. With one RHS it takes the
// specialized P2P loops; for batches it materializes the kernel block
// once into worker scratch and applies it per RHS, so the kernel
// evaluations — the dominant near-field cost — are paid once per batch.
// (Kernels return a zero block at zero displacement, so self
// interactions vanish on both paths.)
func (s *Sweep) addP2P(sc *scratch, trg, src []float64, den, dst func(q int) []float64, flops *int64) {
	k := s.e.opt.Kernel
	nt, ns := len(trg)/3, len(src)/3
	if s.nrhs == 1 {
		kernels.P2P(k, trg, src, den(0), dst(0))
		*flops += kernels.P2PFlops(k, nt, ns)
		return
	}
	rows, cols := nt*s.td, ns*s.sd
	m := linalg.Dense{Rows: rows, Cols: cols, Data: sc.matBuf(rows * cols)}
	kernels.Matrix(k, trg, src, m.Data)
	*flops += kernels.P2PFlops(k, nt, ns)
	for q := 0; q < s.nrhs; q++ {
		m.MatVecAdd(dst(q), den(q))
		*flops += int64(2 * rows * cols)
	}
}

// potAt returns the per-RHS potential views of box b's targets.
func (s *Sweep) potAt(b *tree.Box) func(q int) []float64 {
	return func(q int) []float64 {
		return s.ppots[q][b.TrgStart*s.td : (b.TrgStart+b.TrgCount)*s.td]
	}
}

// Up computes the upward equivalent density of every box with own
// sources, deepest level first (S2M at leaves, M2M inside), and returns
// them indexed by box (nil where a box has no sources). On a rank they
// are partial: the rank's sources' share of each density, which is
// linear in the sources. Levels run in sequence — a parent needs its
// children — and the boxes of one level fan out over the lease. sp, when
// non-nil, gets a span per level.
func (s *Sweep) Up(ctx context.Context, sp *obs.Span) ([][]float64, error) {
	t := s.e.Tree
	ne, nc := s.ne, s.nc
	s.phiU = make([][]float64, len(t.Boxes))
	for l := t.Depth() - 1; l >= 0; l-- {
		ls := sp.StartChild("level " + strconv.Itoa(l))
		radius := t.BoxHalfWidth(l)
		// Fetch the level's operators once, outside the parallel region,
		// so workers apply them lock-free. Internal boxes exist at level
		// l only when level l+1 is populated.
		upPinv := s.e.Ops.UpwardPinv(l)
		var m2m [8]translate.Op
		if l < t.Depth()-1 {
			for o := range m2m {
				m2m[o] = s.e.Ops.M2M(l, o)
			}
		}
		err := s.pool.ForRange(ctx, t.LevelStart[l], t.LevelStart[l+1], func(w, bi int) {
			b := &t.Boxes[bi]
			if b.SrcCount == 0 {
				return
			}
			sc := &s.ws[w]
			start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
			check := sc.checkBuf(s.nrhs * nc)
			for i := range check {
				check[i] = 0
			}
			if b.Leaf {
				src := t.SrcSlice(int32(bi))
				ucPts := s.e.Ops.UpwardCheckPoints(t.BoxCenter(int32(bi)), radius, sc.ptsBuf(3*s.e.Ops.Surf.N))
				s.addP2P(sc, ucPts, src, func(q int) []float64 { return s.Density(q, int32(bi)) }, sliceAt(check, nc), &sc.stats.FlopsUp)
			} else {
				for o, ci := range b.Children {
					if ci == tree.Nil || s.phiU[ci] == nil {
						continue
					}
					for q := 0; q < s.nrhs; q++ {
						m2m[o].Apply(check[q*nc:(q+1)*nc], s.phiU[ci][q*ne:(q+1)*ne])
					}
					sc.stats.FlopsUp += int64(2*nc*ne) * int64(s.nrhs)
				}
			}
			phi := make([]float64, s.nrhs*ne)
			for q := 0; q < s.nrhs; q++ {
				upPinv.Apply(phi[q*ne:(q+1)*ne], check[q*nc:(q+1)*nc])
			}
			sc.stats.FlopsUp += int64(2*ne*nc) * int64(s.nrhs)
			s.phiU[bi] = phi
			sc.stats.Up += time.Since(start)
		})
		ls.End()
		if err != nil {
			return nil, errs.FromContext(err)
		}
	}
	return s.phiU, nil
}

// getCheck lazily allocates a box's downward check potentials. Within
// each parallel phase a box is visited by exactly one worker, and phases
// are separated by pool barriers, so no lock is needed.
func (s *Sweep) getCheck(bi int32) []float64 {
	if s.checks[bi] == nil {
		s.checks[bi] = make([]float64, s.nrhs*s.nc)
	}
	return s.checks[bi]
}

// Near runs the passes that need only leaf source data: the U list
// (direct interactions with adjacent leaves and the leaf itself, into
// the potentials) and the X list (sources of coarser leaves evaluated on
// the downward check surface, S2L). pos and den give the sources of
// every box the lists name, indexed by box: positions and rhs-major
// densities (a rank's ghost copies); nil pos selects the tree's own
// sources. Boxes write disjoint potentials and check buffers, so the
// whole sweep fans out at once.
func (s *Sweep) Near(ctx context.Context, pos, den [][]float64) error {
	t := s.e.Tree
	nsurf := 3 * s.e.Ops.Surf.N
	s.checks = make([][]float64, len(t.Boxes))
	err := s.pool.ForRange(ctx, 0, len(t.Boxes), func(w, bi int) {
		b := &t.Boxes[bi]
		if b.TrgCount == 0 {
			return
		}
		sc := &s.ws[w]
		if b.Leaf {
			start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
			trg, pot := t.TrgSlice(int32(bi)), s.potAt(b)
			for _, u := range b.U {
				src, d := s.sources(u, pos, den)
				if len(src) == 0 {
					continue
				}
				s.addP2P(sc, trg, src, d, pot, &sc.stats.FlopsDownU)
			}
			sc.stats.DownU += time.Since(start)
		}
		if len(b.X) > 0 {
			start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
			check := s.getCheck(int32(bi))
			dcPts := s.e.Ops.DownwardCheckPoints(t.BoxCenter(int32(bi)), t.BoxHalfWidth(b.Level()), sc.ptsBuf(nsurf))
			for _, a := range b.X {
				src, d := s.sources(a, pos, den)
				if len(src) == 0 {
					continue
				}
				s.addP2P(sc, dcPts, src, d, sliceAt(check, s.nc), &sc.stats.FlopsDownX)
			}
			sc.stats.DownX += time.Since(start)
		}
	})
	return errs.FromContext(err)
}

// Far runs the far field once the upward densities are known: level by
// level, the V list (M2L) into the check potentials, then L2L from the
// parent and the inversion into downward equivalent densities. phi holds
// the upward density of every box the V and W lists name, indexed by box
// (nil where a box has none): a single-node sweep passes what Up
// returned, a rank the global densities it gathered. Leaf reads the same
// phi. Levels run in sequence (a child needs its parent's density);
// within a level the M2L sweep and the L2L/inversion sweep each fan out
// over the lease. sp, when non-nil, gets a span per level.
func (s *Sweep) Far(ctx context.Context, phi [][]float64, sp *obs.Span) error {
	t := s.e.Tree
	s.phiG = phi
	s.phiD = make([][]float64, len(t.Boxes))
	for l := 2; l < t.Depth(); l++ {
		ls := sp.StartChild("level " + strconv.Itoa(l))
		err := s.farLevel(ctx, l)
		ls.End()
		if err != nil {
			return errs.FromContext(err)
		}
	}
	return nil
}

// farLevel is one level of Far.
func (s *Sweep) farLevel(ctx context.Context, l int) error {
	t := s.e.Tree
	ne, nc := s.ne, s.nc
	var err error
	if s.e.fft != nil {
		err = s.applyM2LFFT(ctx, l)
	} else {
		err = s.applyM2LDense(ctx, l)
	}
	if err != nil {
		return err
	}
	downPinv := s.e.Ops.DownwardPinv(l)
	// L2L operators are only applied when the parent has a downward
	// density, which level-1 parents (of the first downward level)
	// never do — don't build 8 unused operators there.
	var l2l [8]translate.Op
	if l > 2 {
		for o := range l2l {
			l2l[o] = s.e.Ops.L2L(l-1, o)
		}
	}
	return s.pool.ForRange(ctx, t.LevelStart[l], t.LevelStart[l+1], func(w, bi int) {
		b := &t.Boxes[bi]
		if b.TrgCount == 0 {
			// No targets anywhere below: the local expansion is
			// useless. (Pruned boxes always have points, but a box
			// can hold sources only.)
			return
		}
		sc := &s.ws[w]
		start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
		if p := b.Parent; p != tree.Nil && s.phiD[p] != nil {
			check := s.getCheck(int32(bi))
			op := l2l[b.Key.Octant()]
			for q := 0; q < s.nrhs; q++ {
				op.Apply(check[q*nc:(q+1)*nc], s.phiD[p][q*ne:(q+1)*ne])
			}
			sc.stats.FlopsEval += int64(2*nc*ne) * int64(s.nrhs)
		}
		if s.checks[bi] != nil {
			phi := make([]float64, s.nrhs*ne)
			for q := 0; q < s.nrhs; q++ {
				downPinv.Apply(phi[q*ne:(q+1)*ne], s.checks[bi][q*nc:(q+1)*nc])
			}
			sc.stats.FlopsEval += int64(2*ne*nc) * int64(s.nrhs)
			s.phiD[bi] = phi
		}
		sc.stats.Eval += time.Since(start)
	})
}

// applyM2LDense applies cached dense M2L operators, fanned out over the
// level's target boxes.
func (s *Sweep) applyM2LDense(ctx context.Context, l int) error {
	t := s.e.Tree
	ne, nc := s.ne, s.nc
	return s.pool.ForRange(ctx, t.LevelStart[l], t.LevelStart[l+1], func(w, bi int) {
		b := &t.Boxes[bi]
		if b.TrgCount == 0 || len(b.V) == 0 {
			return
		}
		sc := &s.ws[w]
		start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
		check := s.getCheck(int32(bi))
		bx, by, bz := b.Key.Decode()
		for _, a := range b.V {
			if s.phiG[a] == nil {
				continue
			}
			ax, ay, az := t.Boxes[a].Key.Decode()
			off := [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)}
			op := s.e.Ops.M2LDirect(l, off)
			for q := 0; q < s.nrhs; q++ {
				op.Apply(check[q*nc:(q+1)*nc], s.phiG[a][q*ne:(q+1)*ne])
			}
			sc.stats.FlopsDownV += int64(2*nc*ne) * int64(s.nrhs)
		}
		sc.stats.DownV += time.Since(start)
	})
}

// rhsChunk picks how many right-hand sides the V-list sweep processes
// per pass, bounded so the in-flight Fourier grids of a level stay
// within a fixed memory budget. The choice depends only on the plan and
// the batch — never on the worker count — so batched results stay
// deterministic across machines.
func rhsChunk(nrhs int, lv *translate.M2LLevel) int {
	// Every RHS is its own kernel pass, so larger chunks only save
	// per-pass set-up; past 16 the extra grids only cost memory.
	const maxChunk = 16
	// ~256 MiB of simultaneous source grids (8 bytes per float).
	const budgetBytes = 256 << 20
	c := nrhs
	if c > maxChunk {
		c = maxChunk
	}
	if per := int64(lv.SpecLen(1)) * 8; per > 0 {
		if b := int(budgetBytes / per); b < c {
			c = b
		}
	}
	if c < 1 {
		c = 1
	}
	return c
}

// m2lPlans returns the per-level FFT-M2L plans, building them on first
// use. Targets are the boxes with targets, sources the boxes phi gives
// an upward density. The plans depend only on the tree: every sweep of
// one evaluator passes densities for the same boxes (the boxes with
// sources on a single node, the V- and W-list ghosts on a rank).
func (e *Evaluator) m2lPlans(phi [][]float64) []*translate.M2LLevel {
	e.m2lMu.Lock()
	defer e.m2lMu.Unlock()
	if e.m2l == nil {
		t := e.Tree
		plans := make([]*translate.M2LLevel, t.Depth())
		isTarget := func(bi int32) bool { return t.Boxes[bi].TrgCount > 0 }
		isSource := func(bi int32) bool { return phi[bi] != nil }
		for l := 2; l < t.Depth(); l++ {
			plans[l] = e.fft.PlanTreeLevel(t, l, isTarget, isSource)
		}
		e.m2l = plans
	}
	return e.m2l
}

// applyM2LFFT runs the level's V-list translations through the Fourier
// path: one forward FFT per contributing source box per RHS, the
// level-wide M2L kernel over tiles of sibling groups, one inverse FFT
// per target per RHS. The forward sweep (over source boxes) and the
// accumulate/extract sweep (over tiles) each fan out over the pool; a
// barrier between them guarantees every spectrum is ready. The batch is
// walked in rhs chunks (see rhsChunk).
func (s *Sweep) applyM2LFFT(ctx context.Context, l int) error {
	lv := s.e.m2lPlans(s.phiG)[l]
	srcs := lv.Sources()
	if len(srcs) == 0 {
		return nil
	}
	ne, nc := s.ne, s.nc
	chunk := rhsChunk(s.nrhs, lv)
	spec := make([]float64, lv.SpecLen(chunk))
	for q0 := 0; q0 < s.nrhs; q0 += chunk {
		nq := min(chunk, s.nrhs-q0)
		err := s.pool.ForRange(ctx, 0, len(srcs), func(w, i int) {
			sc := &s.ws[w]
			start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
			sc.stats.FlopsDownV += lv.Forward(spec, nq, i, s.phiG[srcs[i]][q0*ne:(q0+nq)*ne], &sc.m2l)
			sc.stats.DownV += time.Since(start)
		})
		if err != nil {
			return err
		}
		err = s.pool.ForRange(ctx, 0, lv.Tiles(), func(w, i int) {
			sc := &s.ws[w]
			start := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
			sc.stats.FlopsDownV += lv.ApplyTile(i, spec, nq, &sc.m2l, func(bi int32) []float64 {
				return s.getCheck(bi)[q0*nc : (q0+nq)*nc]
			})
			sc.stats.DownV += time.Since(start)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Leaf finishes the potentials at every leaf: the W list (far small
// boxes evaluated from their upward densities, M2T, reading Far's phi)
// and the local expansion (L2T). Leaves own disjoint target ranges, so
// the whole sweep fans out at once.
func (s *Sweep) Leaf(ctx context.Context) error {
	t := s.e.Tree
	ne := s.ne
	nsurf := 3 * s.e.Ops.Surf.N
	err := s.pool.ForRange(ctx, 0, len(t.Boxes), func(w, bi int) {
		b := &t.Boxes[bi]
		if !b.Leaf || b.TrgCount == 0 {
			return
		}
		sc := &s.ws[w]
		trg := t.TrgSlice(int32(bi))
		pot := s.potAt(b)
		startW := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
		for _, wi := range b.W {
			if s.phiG[wi] == nil {
				continue
			}
			wb := &t.Boxes[wi]
			surfPts := s.e.Ops.UpwardEquivPoints(t.BoxCenter(wi), t.BoxHalfWidth(wb.Level()), sc.ptsBuf(nsurf))
			s.addP2P(sc, trg, surfPts, sliceAt(s.phiG[wi], ne), pot, &sc.stats.FlopsDownW)
		}
		sc.stats.DownW += time.Since(startW)
		startE := time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
		if s.phiD[bi] != nil {
			surfPts := s.e.Ops.DownwardEquivPoints(t.BoxCenter(int32(bi)), t.BoxHalfWidth(b.Level()), sc.ptsBuf(nsurf))
			s.addP2P(sc, trg, surfPts, sliceAt(s.phiD[bi], ne), pot, &sc.stats.FlopsEval)
		}
		sc.stats.Eval += time.Since(startE)
	})
	return errs.FromContext(err)
}
