package parfmm

import (
	"context"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/morton"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tree"
)

// rank holds one processor's state. c is any mpi.Transport — the
// in-process simulation (Evaluate) or the cluster's TCP transport
// (EvaluateRank); the algorithm code is identical over both.
type rank struct {
	c   mpi.Transport
	in  *RankInput
	opt fmm.Options // engine options, defaulted

	// tl records this rank's span timeline and communication ledger
	// when Options.Trace is set (nil otherwise; all helpers nil-safe).
	tl *obs.RankTimeline

	// ev is the FMM engine over the rank's local essential tree. It
	// leases from a private one-lane pool: a rank blocks in Recv while
	// holding its lease, so ranks sharing a pool smaller than their
	// count would deadlock its Acquire.
	ev   *fmm.Evaluator
	tree *tree.Tree
	gCnt []int64 // global point count per box

	words   int      // mask words per box
	contrib []uint64 // contributor masks, boxes x words
	srcUse  []uint64 // source-ghost user masks
	denUse  []uint64 // upward-density user masks
	owner   []int32

	// Per-evaluation state: the engine sweep in flight and, indexed by
	// box, the partial upward densities it computed and the ghost copies
	// the exchanges gathered.
	sw       *fmm.Sweep
	phiU     [][]float64 // partial upward densities (contributed boxes)
	ghostPos [][]float64 // leaf box -> global source positions
	ghostDen [][]float64 // leaf box -> global source densities
	ghostPhi [][]float64 // box -> global upward equivalent density

	pot   []float64 // local potentials, original local order
	stats fmm.Stats
}

// setup runs everything before the first interaction evaluation: the
// global tree construction, the rank's engine over its local essential
// tree, and the owner assignment. With trace set it starts the rank's
// timeline and ledger first.
func (rk *rank) setup(ctx context.Context, trace bool) error {
	if trace {
		tl := obs.NewRankTimeline(rk.c.Rank())
		rk.tl = tl
		rk.c.SetObserver(func(ev mpi.Event) { tl.Record(msgRecord(ev)) })
	}
	sp := rk.beginSpan("tree_build")
	err := rk.buildGlobalTree(ctx)
	rk.endSpan(sp)
	if err != nil {
		return err
	}
	sp = rk.beginSpan("assign_owners")
	rk.assignOwners()
	rk.endSpan(sp)
	return nil
}

// close releases the engine's claim on the shared operator caches.
func (rk *rank) close() {
	if rk.ev != nil {
		rk.ev.Close()
	}
}

// beginSpan opens a virtual-time span on the rank's timeline (nil when
// tracing is off). Elapsed() folds pending wall time into the virtual
// clock, so span edges line up with the communication ledger.
func (rk *rank) beginSpan(name string) *obs.VSpan {
	if rk.tl == nil {
		return nil
	}
	return rk.tl.Begin(name, rk.c.Elapsed())
}

// endSpan closes sp at the current virtual time.
func (rk *rank) endSpan(sp *obs.VSpan) {
	if rk.tl == nil || sp == nil {
		return
	}
	rk.tl.End(sp, rk.c.Elapsed())
}

// ioMark snapshots the communication counters so endSpanIO can attach
// the span's byte/message deltas as attributes.
type ioMark struct {
	bytes int64
	msgs  int64
}

func (rk *rank) markIO() ioMark {
	return ioMark{bytes: rk.c.BytesSent() + rk.c.BytesRecv(), msgs: rk.c.Messages()}
}

// endSpanIO closes a communication span, attaching the bytes moved
// (sent + received) and messages sent since mark.
func (rk *rank) endSpanIO(sp *obs.VSpan, mark ioMark) {
	if rk.tl == nil || sp == nil {
		return
	}
	sp.SetAttr("bytes", strconv.FormatInt(rk.c.BytesSent()+rk.c.BytesRecv()-mark.bytes, 10))
	sp.SetAttr("msgs", strconv.FormatInt(rk.c.Messages()-mark.msgs, 10))
	rk.tl.End(sp, rk.c.Elapsed())
}

// msgRecord converts an mpi ledger event into the obs representation
// (parfmm owns the conversion so mpi stays observability-agnostic).
func msgRecord(ev mpi.Event) obs.MsgRecord {
	kind := obs.MsgSend
	switch ev.Kind {
	case mpi.EventRecv:
		kind = obs.MsgRecv
	case mpi.EventCollective:
		kind = obs.MsgCollective
	}
	return obs.MsgRecord{
		Kind: kind, Rank: ev.Rank, Peer: ev.Peer, Tag: ev.Tag, Bytes: ev.Bytes,
		Start: ev.Start, End: ev.End, Sent: ev.Sent, Wait: ev.Wait,
		DepRank: ev.DepRank, DepTime: ev.DepTime,
	}
}

// contributes reports whether this rank has points in box bi.
func (rk *rank) contributes(bi int32) bool { return rk.tree.Boxes[bi].SrcCount > 0 }

// maskBit reports whether rank r's bit is set in the mask of box bi.
func maskBit(mask []uint64, words int, bi int32, r int) bool {
	return mask[int(bi)*words+r/64]&(1<<(r%64)) != 0
}

// buildGlobalTree performs the level-by-level construction of paper
// Section 3.1: each rank fills its local point counts into the level's
// slab of the global tree array, an MPI_Allreduce sums them, and every
// rank derives the identical next level from the global counts.
func (rk *rank) buildGlobalTree(ctx context.Context) error {
	c := rk.c
	// Globally agreed computational domain.
	lo := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i+2 < len(rk.in.Pts); i += 3 {
		for d := 0; d < 3; d++ {
			if v := rk.in.Pts[i+d]; v < lo[d] {
				lo[d] = v
			}
			if v := rk.in.Pts[i+d]; v > hi[d] {
				hi[d] = v
			}
		}
	}
	lo = c.AllreduceFloat64(mpi.OpMin, lo)
	hi = c.AllreduceFloat64(mpi.OpMax, hi)
	var center [3]float64
	hw := 0.0
	for d := 0; d < 3; d++ {
		center[d] = (lo[d] + hi[d]) / 2
		if w := (hi[d] - lo[d]) / 2; w > hw {
			hw = w
		}
	}
	if hw <= 0 || math.IsInf(hw, 0) {
		hw = 1
	}
	hw *= 1 + 1e-10

	sorted, perm, keys := tree.SortPointsByKey(rk.in.Pts, center, hw)
	n := len(keys)

	maxDepth := rk.opt.MaxDepth
	s := int64(rk.opt.MaxPoints)

	root := tree.Box{Key: morton.Key{}, Parent: tree.Nil, Leaf: true, SrcCount: n, TrgCount: n}
	for i := range root.Children {
		root.Children[i] = tree.Nil
	}
	boxes := []tree.Box{root}
	gRoot := c.AllreduceInt64(mpi.OpSum, []int64{int64(n)})
	gCnt := []int64{gRoot[0]}
	levelStart := []int{0, 1}

	for l := 0; ; l++ {
		start, end := levelStart[l], levelStart[l+1]
		// Decide which level-l boxes split, from their global counts.
		var splitting []int32
		for bi := start; bi < end; bi++ {
			if gCnt[bi] > s && l < maxDepth {
				splitting = append(splitting, int32(bi))
			}
		}
		if len(splitting) == 0 {
			break
		}
		// Local child counts for every splitting box, in octant order.
		local := make([]int64, 8*len(splitting))
		for si, bi := range splitting {
			b := &boxes[bi]
			off := b.SrcStart
			for o := 0; o < 8; o++ {
				ck := b.Key.Child(o)
				cnt := tree.CountRange(keys, off, b.SrcStart+b.SrcCount, ck)
				local[8*si+o] = int64(cnt)
				off += cnt
			}
		}
		global := c.AllreduceInt64(mpi.OpSum, local)
		// Materialize children that exist globally (possibly with empty
		// local ranges), identically on every rank.
		for si, bi := range splitting {
			boxes[bi].Leaf = false
			off := boxes[bi].SrcStart
			for o := 0; o < 8; o++ {
				lc := int(local[8*si+o])
				gc := global[8*si+o]
				if gc == 0 {
					continue
				}
				child := tree.Box{
					Key: boxes[bi].Key.Child(o), Parent: bi, Leaf: true,
					SrcStart: off, SrcCount: lc,
					TrgStart: off, TrgCount: lc,
				}
				for i := range child.Children {
					child.Children[i] = tree.Nil
				}
				ci := int32(len(boxes))
				boxes = append(boxes, child)
				gCnt = append(gCnt, gc)
				boxes[bi].Children[o] = ci
				off += lc
			}
		}
		levelStart = append(levelStart, len(boxes))
	}
	rk.gCnt = gCnt
	tr, err := tree.Assemble(ctx, center, hw, boxes, levelStart, sorted, perm, rk.opt.MaxPoints)
	if err != nil {
		return errs.FromContext(err)
	}
	rk.tree = tr
	// The engine's translation operators are shared across ranks via
	// the global cache.
	opt := rk.opt
	opt.Workers, opt.Pool = 1, exec.NewElastic(1)
	rk.ev, err = fmm.FromTree(tr, opt)
	return err
}

// assignOwners implements the paper's three-step owner assignment: mark
// boxes whose sole contributor is known locally (local count == global
// count), combine with an Allreduce, then run the same deterministic
// balancing pass everywhere for multi-contributor boxes. It also builds
// the contributor and user masks that drive Algorithm 1.
func (rk *rank) assignOwners() {
	c := rk.c
	nb := len(rk.tree.Boxes)
	rk.words = (c.Size() + 63) / 64

	// Contributor masks.
	local := make([]int64, nb*rk.words)
	for bi := 0; bi < nb; bi++ {
		if rk.contributes(int32(bi)) {
			local[bi*rk.words+c.Rank()/64] |= 1 << (c.Rank() % 64)
		}
	}
	global := c.AllreduceInt64(mpi.OpSum, local)
	rk.contrib = make([]uint64, len(global))
	for i, v := range global {
		rk.contrib[i] = uint64(v)
	}

	// Step 1+2: sole contributors take their boxes; Allreduce(max)
	// publishes the taken set.
	taken := make([]int64, nb)
	for bi := 0; bi < nb; bi++ {
		b := &rk.tree.Boxes[bi]
		if b.SrcCount > 0 && int64(b.SrcCount) == rk.gCnt[bi] {
			taken[bi] = int64(c.Rank()) + 1
		}
	}
	taken = c.AllreduceInt64(mpi.OpMax, taken)
	// Step 3: identical sequential balancing pass for the rest.
	rk.owner = make([]int32, nb)
	rr := 0
	for bi := 0; bi < nb; bi++ {
		if taken[bi] > 0 {
			rk.owner[bi] = int32(taken[bi] - 1)
		} else {
			rk.owner[bi] = int32(rr % c.Size())
			rr++
		}
	}

	// User masks: which ranks need a box's global source data (U and X
	// lists) or its global upward equivalent density (V and W lists).
	use := make([]int64, 2*nb*rk.words)
	srcPart := use[:nb*rk.words]
	denPart := use[nb*rk.words:]
	mark := func(part []int64, bi int32) {
		part[int(bi)*rk.words+c.Rank()/64] |= 1 << (c.Rank() % 64)
	}
	for bi := 0; bi < nb; bi++ {
		if !rk.contributes(int32(bi)) {
			continue
		}
		b := &rk.tree.Boxes[bi]
		for _, u := range b.U {
			mark(srcPart, u)
		}
		for _, x := range b.X {
			mark(srcPart, x)
		}
		for _, v := range b.V {
			mark(denPart, v)
		}
		for _, w := range b.W {
			mark(denPart, w)
		}
	}
	use = c.AllreduceInt64(mpi.OpSum, use)
	rk.srcUse = make([]uint64, nb*rk.words)
	rk.denUse = make([]uint64, nb*rk.words)
	for i := 0; i < nb*rk.words; i++ {
		rk.srcUse[i] = uint64(use[i])
		rk.denUse[i] = uint64(use[nb*rk.words+i])
	}
}

// forEachRank calls fn for every rank whose bit is set in the mask of bi.
func (rk *rank) forEachRank(mask []uint64, bi int32, fn func(r int)) {
	for w := 0; w < rk.words; w++ {
		for m := mask[int(bi)*rk.words+w]; m != 0; m &= m - 1 {
			fn(w*64 + bits.TrailingZeros64(m))
		}
	}
}

func (rk *rank) isUser(mask []uint64, bi int32) bool {
	return maskBit(mask, rk.words, bi, rk.c.Rank())
}

// pointWorkEstimate attributes the rank's interaction work to its local
// points, in original local order. Each point's estimate is its leaf's
// dominant cost — the dense U-list interactions plus the per-point share
// of the leaf's list work — which is the "workload information from
// previous time steps" the paper proposes feeding back into the
// partitioner. Units are approximate flops per point.
func (rk *rank) pointWorkEstimate() []int64 {
	t := rk.tree
	k := rk.opt.Kernel
	n := len(t.SrcPoints) / 3
	sorted := make([]int64, n)
	surfN := rk.ev.Ops.Surf.N
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 {
			continue
		}
		// Dense work per target point: sum of ghost source counts over
		// the U list.
		var uSrc int
		for _, u := range b.U {
			uSrc += len(rk.ghostPos[u]) / 3
		}
		perPoint := kernels.P2PFlops(k, 1, uSrc)
		// List work shared by the leaf's points: W (M2T), L2T, S2M.
		perPoint += kernels.P2PFlops(k, 1, surfN*(len(b.W)+2))
		for i := b.SrcStart; i < b.SrcStart+b.SrcCount; i++ {
			sorted[i] = perPoint
		}
	}
	// Un-permute to the rank's original local order.
	out := make([]int64, n)
	for i, orig := range t.SrcPerm {
		out[orig] = sorted[i]
	}
	return out
}
