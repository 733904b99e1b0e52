package translate

import (
	"fmt"
	"slices"

	"repro/internal/tree"
)

// m2lTarget is one target box of a level plan and its V list: source
// slot Src[i] (an index into the level's source spectra) translates to
// the target at integer center offset Off[i] = target cell - source
// cell.
type m2lTarget struct {
	Box int32
	Src []int32
	Off [][3]int
}

// M2LLevel is one tree level's V-list translations planned for the
// group kernel. Targets are packed into groups of up to 4 (siblings,
// for tree plans); each group owns an entry list in which every entry
// names one source slot and, per group member, the tensor translating
// that source to the member — the zero tensor when the member does not
// interact with it. The level's tensors are fetched once, when it is
// planned. The plan depends only on the V lists, never on the number of
// workers running it, and it is read-only once built: any number of
// goroutines may run its tiles concurrently, each with its own
// M2LScratch.
type M2LLevel struct {
	f       *FFTM2L
	escale  float64 // the level's analytic operator scale
	nsrc    int
	sources []int32 // tree plans: the box of each source slot
	boxes   []int32 // 4 per group; -1 pads a short group
	groupAt []int   // group g's entries are ents[5*groupAt[g] : 5*groupAt[g+1]]
	ents    []int32 // per entry: source slot, then 4 tensor ids (0: zero tensor)
	pairs   []int   // useful (target, source) pairs per group
	// ten holds the chunked component grids of the level's tensors:
	// tensor id t, component pair (a, b) at ten[t*TargetDim*SourceDim
	// + a*SourceDim + b]. Id 0 is the zero tensor.
	ten [][]float64
}

// accBudget bounds the accumulator bytes of one ApplyTile pass: one
// grid per target of the tile's groups, at least one group. Batches and
// multi-component kernels take one pass per (rhs, target component)
// rather than more memory. Larger tiles reuse cached tensor blocks
// across more groups — on a 2-vCPU Xeon, 4 groups per tile ran the
// degree-6 kernel ~15% faster — but every lane and rank holds its
// accumulators at once, and a 256 KiB budget grew the peak heap of a
// 12k-point degree-4 distributed run by over 10%.
const accBudget = 1 << 16

// levelPlanner builds an M2LLevel one group at a time, so a plan never
// holds more than one group's V lists besides its own entry lists.
type levelPlanner struct {
	lv  *M2LLevel
	key int
	// ids is the tensor id of each offset, in first-use order (offs).
	ids  map[[3]int]int32
	offs [][3]int
	// last[k][slot] is the last position of slot in member k's list,
	// -1 if absent (reset after each group).
	last [chunkLen][]int
}

func (f *FFTM2L) newPlanner(level, nsrc int) *levelPlanner {
	key, escale, _ := f.set.scaleFor(level)
	p := &levelPlanner{
		lv:  &M2LLevel{f: f, escale: escale, nsrc: nsrc, groupAt: []int{0}},
		key: key,
		ids: map[[3]int]int32{},
	}
	for k := range p.last {
		p.last[k] = make([]int, nsrc)
		for i := range p.last[k] {
			p.last[k][i] = -1
		}
	}
	return p
}

// add appends one group of 1 to 4 targets. Every target should list at
// least one source; each accumulates its sources in the order it lists
// them (see merge).
func (p *levelPlanner) add(grp []m2lTarget) {
	lv := p.lv
	if len(grp) == 0 || len(grp) > chunkLen {
		badPlan("M2L group of %d targets, want 1..%d", len(grp), chunkLen)
	}
	pairs := 0
	for k, t := range grp {
		for i, s := range t.Src {
			if s < 0 || int(s) >= lv.nsrc {
				badPlan("source slot %d outside [0, %d)", s, lv.nsrc)
			}
			if _, ok := p.ids[t.Off[i]]; !ok {
				p.offs = append(p.offs, t.Off[i])
				p.ids[t.Off[i]] = int32(len(p.offs))
			}
			p.last[k][s] = i
		}
		pairs += len(t.Src)
	}
	p.merge(grp)
	for k, t := range grp {
		for _, s := range t.Src {
			p.last[k][s] = -1
		}
	}
	lv.groupAt = append(lv.groupAt, len(lv.ents)/5)
	for k := 0; k < chunkLen; k++ {
		box := int32(-1)
		if k < len(grp) {
			box = grp[k].Box
		}
		lv.boxes = append(lv.boxes, box)
	}
	lv.pairs = append(lv.pairs, pairs)
}

// badPlan panics on a malformed plan group.
func badPlan(format string, args ...any) {
	panic(fmt.Sprintf("translate: "+format, args...))
}

// merge appends the entry list of one group: a merge of the members'
// source lists in which every member meets its sources in its own list
// order, so each target accumulates exactly as a per-pair loop over its
// V list would. An entry serves every member whose next source is the
// entry's slot; the merge prefers a slot no member still needs later,
// so lists drawn from one common order (siblings' V lists all follow
// their parent's neighbours) share one entry per source.
func (p *levelPlanner) merge(grp []m2lTarget) {
	var head [chunkLen]int
	for {
		pick := int32(-1)
		for k, t := range grp {
			if head[k] == len(t.Src) {
				continue
			}
			s := t.Src[head[k]]
			later := false
			for j := range grp {
				later = later || p.last[j][s] > head[j]
			}
			if !later {
				pick = s
				break
			}
			if pick < 0 {
				pick = s
			}
		}
		if pick < 0 {
			return
		}
		p.lv.ents = append(p.lv.ents, pick, 0, 0, 0, 0)
		e := p.lv.ents[len(p.lv.ents)-chunkLen:]
		for k, t := range grp {
			if head[k] < len(t.Src) && t.Src[head[k]] == pick {
				e[k] = p.ids[t.Off[head[k]]]
				head[k]++
			}
		}
	}
}

// finish fetches the level's tensors — once per level, never per pair
// — and returns the plan.
func (p *levelPlanner) finish() *M2LLevel {
	lv, f := p.lv, p.lv.f
	comps := f.set.Kern.TargetDim() * f.set.Kern.SourceDim()
	lv.ten = make([][]float64, 0, (len(p.offs)+1)*comps)
	for c := 0; c < comps; c++ {
		lv.ten = append(lv.ten, f.zero)
	}
	for _, k := range p.offs {
		t := f.tensor(p.key, k)
		for c := 0; c < comps; c++ {
			lv.ten = append(lv.ten, t[c*f.gf:(c+1)*f.gf])
		}
	}
	return lv
}

// PlanTreeLevel plans level l of tree t. Targets are the level's boxes
// for which isTarget holds and whose V list holds at least one box for
// which isSource holds; only those sources enter the plan. Targets are
// grouped by parent, up to 4 siblings per group in box order, and
// source slots follow box order (Sources).
func (f *FFTM2L) PlanTreeLevel(t *tree.Tree, l int, isTarget, isSource func(int32) bool) *M2LLevel {
	lo, hi := int32(t.LevelStart[l]), int32(t.LevelStart[l+1])
	// V lists hold boxes of their own level: slot[a-lo] is box a's
	// source slot, -1 if it is none.
	slot := make([]int32, hi-lo)
	for i := range slot {
		slot[i] = -1
	}
	var srcs []int32
	for bi := lo; bi < hi; bi++ {
		if !isTarget(bi) {
			continue
		}
		for _, a := range t.Boxes[bi].V {
			if slot[a-lo] < 0 && isSource(a) {
				slot[a-lo] = 0
				srcs = append(srcs, a)
			}
		}
	}
	slices.Sort(srcs)
	for i, a := range srcs {
		slot[a-lo] = int32(i)
	}
	p := f.newPlanner(l, len(srcs))
	var grp [chunkLen]m2lTarget
	n := 0
	for bi := lo; bi < hi; bi++ {
		if !isTarget(bi) {
			continue
		}
		b := &t.Boxes[bi]
		// Siblings are contiguous, so a full group or a new parent
		// closes the group.
		if n == chunkLen || n > 0 && t.Boxes[grp[0].Box].Parent != b.Parent {
			p.add(grp[:n])
			n = 0
		}
		tg := &grp[n]
		tg.Box, tg.Src, tg.Off = bi, tg.Src[:0], tg.Off[:0]
		bx, by, bz := b.Key.Decode()
		for _, a := range b.V {
			if s := slot[a-lo]; s >= 0 {
				ax, ay, az := t.Boxes[a].Key.Decode()
				tg.Src = append(tg.Src, s)
				tg.Off = append(tg.Off, [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)})
			}
		}
		if len(tg.Src) > 0 {
			n++
		}
	}
	if n > 0 {
		p.add(grp[:n])
	}
	lv := p.finish()
	lv.sources = srcs
	return lv
}

// Sources returns the box of each source slot of a tree plan.
func (lv *M2LLevel) Sources() []int32 { return lv.sources }

// numGroups returns the number of target groups.
func (lv *M2LLevel) numGroups() int { return len(lv.pairs) }

// SpecLen returns the float64s holding the level's source spectra for
// nq right-hand sides.
func (lv *M2LLevel) SpecLen(nq int) int {
	return lv.nsrc * nq * lv.f.set.Kern.SourceDim() * lv.f.gf
}

// Bytes returns the plan's own memory (the tensors it reads are cached
// and accounted by FFTM2L.CachedBytes).
func (lv *M2LLevel) Bytes() int64 {
	return 4*int64(len(lv.sources)+len(lv.boxes)+len(lv.ents)) + 8*int64(len(lv.groupAt)+len(lv.pairs)) + 24*int64(len(lv.ten))
}

// Forward transforms the upward equivalent densities of source slot
// slot — phi holds nq densities of EquivCount values, rhs-major — into
// the slot's spectra in spec (slot-major, then rhs, then source
// component). It returns the flops spent.
func (lv *M2LLevel) Forward(spec []float64, nq, slot int, phi []float64, sc *M2LScratch) int64 {
	f := lv.f
	sd, ne, gf := f.set.Kern.SourceDim(), f.set.EquivCount(), f.gf
	base := slot * nq * sd * gf
	for q := 0; q < nq; q++ {
		for c := 0; c < sd; c++ {
			o := base + (q*sd+c)*gf
			f.forward(phi[q*ne:(q+1)*ne], c, sd, spec[o:o+gf], sc)
		}
	}
	return int64(5*f.gl*sd) * int64(nq) // ~5 n log n per grid
}

// Tiles returns the number of target tiles: runs of consecutive
// groups whose accumulators together fit accBudget. A tile is the unit
// of work of ApplyTile.
func (lv *M2LLevel) Tiles() int {
	t := lv.tileGroups()
	return (lv.numGroups() + t - 1) / t
}

// tileGroups is the number of groups per tile: as many as keep the
// tile's accumulators (4 targets × one grid per group) within
// accBudget. It depends only on the grid size.
func (lv *M2LLevel) tileGroups() int {
	return max(1, accBudget/(chunkLen*lv.f.gf*8))
}

// ApplyTile runs tile i over nq right-hand sides: it accumulates the
// V-list products of the tile's targets in Fourier space from the
// spectra spec (Forward, same nq), inverse-transforms each target's
// accumulators and adds the downward check potentials, scaled for the
// level, into check(box) (nq*CheckCount values, rhs-major). Distinct
// tiles write distinct boxes. It returns the useful flops spent — the
// zero-tensor padding of short groups is not counted.
func (lv *M2LLevel) ApplyTile(i int, spec []float64, nq int, sc *M2LScratch, check func(box int32) []float64) int64 {
	f := lv.f
	sd, td, nc, gf := f.set.Kern.SourceDim(), f.set.Kern.TargetDim(), f.set.CheckCount(), f.gf
	g0 := i * lv.tileGroups()
	g1 := min(g0+lv.tileGroups(), lv.numGroups())
	boxes := lv.boxes[chunkLen*g0 : chunkLen*g1]
	var flops int64
	for j := 0; j < nq*td; j++ {
		q, a := j/td, j%td
		acc := lv.accumulate(g0, g1, spec, nq, q, a, sc)
		for k, box := range boxes {
			if box >= 0 {
				f.extractAdd(acc[k*gf:(k+1)*gf], a, lv.escale, check(box)[q*nc:(q+1)*nc], sc)
			}
		}
	}
	for g := g0; g < g1; g++ {
		flops += int64(8*f.gl*sd*td) * int64(lv.pairs[g])
	}
	for _, box := range boxes {
		if box >= 0 {
			flops += int64(5 * f.gl * td)
		}
	}
	return flops * int64(nq)
}

// accumulate runs the group kernel over groups [g0, g1) for rhs q of
// nq and target component a, returning the accumulators: member k of
// group g at ((g-g0)*4+k)*gf. Frequency blocks are the outer loop, so
// the tensor and source chunks of one block are reused by every group
// of the tile while they are in cache.
func (lv *M2LLevel) accumulate(g0, g1 int, spec []float64, nq, q, a int, sc *M2LScratch) []float64 {
	sd, gf := lv.f.set.Kern.SourceDim(), lv.f.gf
	nch := gf / chunkFloats
	acc := sc.accBuf((g1 - g0) * chunkLen * gf)
	kents := sc.entsBuf(5 * sd * (lv.groupAt[g1] - lv.groupAt[g0]))
	group := func(g int) []int {
		return kents[5*sd*(lv.groupAt[g]-lv.groupAt[g0]) : 5*sd*(lv.groupAt[g+1]-lv.groupAt[g0])]
	}
	for g := g0; g < g1; g++ {
		lv.kernelEntries(g, nq, q, a, group(g))
		checkGroup(acc[(g-g0)*chunkLen*gf:], gf, spec, lv.ten, group(g), nch)
	}
	for c := 0; c < nch; c += blockChunks {
		o := c * chunkFloats
		for g := g0; g < g1; g++ {
			groupKernel(acc[(g-g0)*chunkLen*gf+o:], gf, spec[o:], lv.ten, o, group(g), min(blockChunks, nch-c))
		}
	}
	return acc
}

// kernelEntries expands group g's plan entries into the group
// kernel's entry list dst (5*SourceDim ints per plan entry) for rhs q
// of nq and target component a: one kernel entry per source component
// b — an offset into the level's spectra and 4 indices into its tensor
// grids — in the order the products accumulate.
func (lv *M2LLevel) kernelEntries(g, nq, q, a int, dst []int) {
	sd, td, gf := lv.f.set.Kern.SourceDim(), lv.f.set.Kern.TargetDim(), lv.f.gf
	sstride := nq * sd * gf
	ents := lv.ents[5*lv.groupAt[g] : 5*lv.groupAt[g+1]]
	for e := 0; e < len(ents)/5; e++ {
		pe := ents[5*e : 5*e+5]
		for b := 0; b < sd; b++ {
			ke := dst[5*(e*sd+b) : 5*(e*sd+b)+5]
			ke[0] = int(pe[0])*sstride + (q*sd+b)*gf
			for k := 0; k < chunkLen; k++ {
				ke[1+k] = int(pe[1+k])*td*sd + a*sd + b
			}
		}
	}
}

// blockChunks is the frequency block of one kernel call (2 KiB of each
// grid): a tile's sources and tensors are streamed block by block, so a
// block's chunks are reused by all groups of the tile from cache.
const blockChunks = 32

// groupKernel is the M2L group kernel this process runs: m2lGroupGo,
// or an equivalent SIMD kernel selected at start-up when the CPU
// supports one (see m2l_amd64.go).
var groupKernel = m2lGroupGo

// checkGroup panics unless a group-kernel call stays within its
// slices. The kernel contract: for every entry e of ents (5 ints: an
// offset into src, then one index into ten per group member k = 0..3)
// and chunk c < nch, member k's accumulator grows by the split-complex
// product
//
//	acc[k*accStride + 8c:] += ten[e_k][toff + 8c:] · src[e_src + 8c:]
//
// Entries accumulate in list order, each product rounded as
// (tr·sr − ti·si) and (tr·si + ti·sr) before the add, so every kernel
// produces bitwise identical sums. checkGroup validates the chunk
// range [0, nch) at toff = 0; the frequency blocks accumulate runs are
// sub-ranges of it.
func checkGroup(acc []float64, accStride int, src []float64, ten [][]float64, ents []int, nch int) {
	n := nch * chunkFloats
	if len(ents)%5 != 0 || accStride < n || 3*accStride+n > len(acc) {
		panic("translate: M2L group accumulator out of range")
	}
	for e := 0; e < len(ents); e += 5 {
		if ents[e] < 0 || ents[e]+n > len(src) {
			panic("translate: M2L group source out of range")
		}
		for k := 1; k <= chunkLen; k++ {
			if ents[e+k] < 0 || ents[e+k] >= len(ten) || len(ten[ents[e+k]]) < n {
				panic("translate: M2L group tensor out of range")
			}
		}
	}
}

// m2lGroupGo is the portable group kernel (see checkGroup). Like the
// SIMD kernel it streams each entry's source and tensors chunk by chunk
// into the members' accumulators, loading each source chunk once for
// all 4 members; the explicit float64 conversions in mac forbid
// fused multiply-adds, which would round differently.
func m2lGroupGo(acc []float64, accStride int, src []float64, ten [][]float64, toff int, ents []int, nch int) {
	n := nch * chunkFloats
	a0 := acc[:n:n]
	a1 := acc[accStride : accStride+n : accStride+n]
	a2 := acc[2*accStride : 2*accStride+n : 2*accStride+n]
	a3 := acc[3*accStride : 3*accStride+n : 3*accStride+n]
	for e := 0; e+5 <= len(ents); e += 5 {
		es := ents[e : e+5 : e+5]
		s := src[es[0] : es[0]+n : es[0]+n]
		t0 := ten[es[1]][toff : toff+n : toff+n]
		t1 := ten[es[2]][toff : toff+n : toff+n]
		t2 := ten[es[3]][toff : toff+n : toff+n]
		t3 := ten[es[4]][toff : toff+n : toff+n]
		for c := 0; c < n; c += chunkFloats {
			sc := (*[chunkFloats]float64)(s[c : c+chunkFloats])
			x0 := (*[chunkFloats]float64)(a0[c : c+chunkFloats])
			x1 := (*[chunkFloats]float64)(a1[c : c+chunkFloats])
			x2 := (*[chunkFloats]float64)(a2[c : c+chunkFloats])
			x3 := (*[chunkFloats]float64)(a3[c : c+chunkFloats])
			y0 := (*[chunkFloats]float64)(t0[c : c+chunkFloats])
			y1 := (*[chunkFloats]float64)(t1[c : c+chunkFloats])
			y2 := (*[chunkFloats]float64)(t2[c : c+chunkFloats])
			y3 := (*[chunkFloats]float64)(t3[c : c+chunkFloats])
			for i := 0; i < chunkLen; i++ {
				sr, si := sc[i], sc[i+chunkLen]
				mac(&x0[i], &x0[i+chunkLen], y0[i], y0[i+chunkLen], sr, si)
				mac(&x1[i], &x1[i+chunkLen], y1[i], y1[i+chunkLen], sr, si)
				mac(&x2[i], &x2[i+chunkLen], y2[i], y2[i+chunkLen], sr, si)
				mac(&x3[i], &x3[i+chunkLen], y3[i], y3[i+chunkLen], sr, si)
			}
		}
	}
}

// mac accumulates the complex product (tr + i·ti)(sr + i·si) into
// (*re, *im).
func mac(re, im *float64, tr, ti, sr, si float64) {
	*re += float64(tr*sr) - float64(ti*si)
	*im += float64(tr*si) + float64(ti*sr)
}
