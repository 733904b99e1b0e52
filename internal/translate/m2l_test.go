package translate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/surface"
	"repro/internal/tree"
)

// refM2L is the per-pair FFT-M2L reference the level kernel replaced:
// complex half-spectrum grids, one Hadamard multiply-accumulate per
// (target, source) pair in the target's V-list order, tensors sampled
// and transformed independently of the slab.
type refM2L struct {
	f       *FFTM2L
	tensors map[[4]float64][][]complex128
}

func newRefM2L(f *FFTM2L) *refM2L {
	return &refM2L{f: f, tensors: map[[4]float64][][]complex128{}}
}

// hadamardAdd is the per-pair inner loop: dst[i] += t[i]*s[i].
func hadamardAdd(dst, t, s []complex128) {
	t = t[:len(dst)]
	s = s[:len(dst)]
	for i := range dst {
		dst[i] += t[i] * s[i]
	}
}

// tensor returns the complex half-spectrum kernel tensors of offset k
// at box half-width r.
func (ref *refM2L) tensor(r float64, k [3]int) [][]complex128 {
	key := [4]float64{r, float64(k[0]), float64(k[1]), float64(k[2])}
	if t, ok := ref.tensors[key]; ok {
		return t
	}
	f := ref.f
	p, m := f.set.P, f.M
	h := surface.Spacing(p, r)
	sd, td := f.set.Kern.SourceDim(), f.set.Kern.TargetDim()
	vols := make([][]float64, td*sd)
	for c := range vols {
		vols[c] = make([]float64, m*m*m)
	}
	block := make([]float64, td*sd)
	for dx := -(p - 1); dx <= p-1; dx++ {
		for dy := -(p - 1); dy <= p-1; dy++ {
			for dz := -(p - 1); dz <= p-1; dz++ {
				f.set.Kern.Eval(h*float64(dx+(p-2)*k[0]), h*float64(dy+(p-2)*k[1]), h*float64(dz+(p-2)*k[2]), block)
				for c, v := range block {
					vols[c][(wrap(dx, m)*m+wrap(dy, m))*m+wrap(dz, m)] = v
				}
			}
		}
	}
	t := make([][]complex128, td*sd)
	for c := range t {
		t[c] = make([]complex128, f.gl)
		f.plan.Forward(t[c], vols[c])
	}
	ref.tensors[key] = t
	return t
}

// spectra transforms nq densities (rhs-major) into nq*sd complex grids.
func (ref *refM2L) spectra(phi []float64, nq int) [][]complex128 {
	f := ref.f
	p, m := f.set.P, f.M
	sd, ne := f.set.Kern.SourceDim(), f.set.EquivCount()
	out := make([][]complex128, nq*sd)
	for q := 0; q < nq; q++ {
		for c := 0; c < sd; c++ {
			vol := make([]float64, m*m*m)
			for si, vi := range f.set.Surf.VolIdx {
				vol[(vi/(p*p)*m+vi/p%p)*m+vi%p] = phi[q*ne+si*sd+c]
			}
			out[q*sd+c] = make([]complex128, f.gl)
			f.plan.Forward(out[q*sd+c], vol)
		}
	}
	return out
}

// apply returns target tg's check potentials (nq*CheckCount values)
// from the per-slot spectra.
func (ref *refM2L) apply(level int, tg m2lTarget, spec [][][]complex128, nq int) []float64 {
	f := ref.f
	p, m := f.set.P, f.M
	sd, td, nc := f.set.Kern.SourceDim(), f.set.Kern.TargetDim(), f.set.CheckCount()
	key, escale, _ := f.set.scaleFor(level)
	acc := make([][]complex128, nq*td)
	for i := range acc {
		acc[i] = make([]complex128, f.gl)
	}
	for i, s := range tg.Src {
		t := ref.tensor(f.set.geomRadius(key), tg.Off[i])
		for q := 0; q < nq; q++ {
			for a := 0; a < td; a++ {
				for b := 0; b < sd; b++ {
					hadamardAdd(acc[q*td+a], t[a*sd+b], spec[s][q*sd+b])
				}
			}
		}
	}
	check := make([]float64, nq*nc)
	vol := make([]float64, m*m*m)
	for q := 0; q < nq; q++ {
		for a := 0; a < td; a++ {
			f.plan.Inverse(vol, acc[q*td+a])
			for si, vi := range f.set.Surf.VolIdx {
				check[q*nc+si*td+a] += escale * vol[(vi/(p*p)*m+vi/p%p)*m+vi%p]
			}
		}
	}
	return check
}

// planLevel plans explicit groups of targets over nsrc source slots.
func planLevel(f *FFTM2L, level, nsrc int, groups [][]m2lTarget) *M2LLevel {
	p := f.newPlanner(level, nsrc)
	for _, g := range groups {
		p.add(g)
	}
	return p.finish()
}

// runLevel runs a level plan over per-slot densities (nq rhs-major
// densities each) and returns the check potentials per target box.
func runLevel(lv *M2LLevel, phis [][]float64, nq int) map[int32][]float64 {
	nc := lv.f.set.CheckCount()
	var sc M2LScratch
	spec := make([]float64, lv.SpecLen(nq))
	for slot, phi := range phis {
		lv.Forward(spec, nq, slot, phi, &sc)
	}
	checks := map[int32][]float64{}
	for i := 0; i < lv.Tiles(); i++ {
		lv.ApplyTile(i, spec, nq, &sc, func(box int32) []float64 {
			if checks[box] == nil {
				checks[box] = make([]float64, nq*nc)
			}
			return checks[box]
		})
	}
	return checks
}

func randomDensities(rng *rand.Rand, n int) []float64 {
	phi := make([]float64, n)
	for i := range phi {
		phi[i] = rng.NormFloat64()
	}
	return phi
}

// maxRelDiff returns max|got-want| / max|want|.
func maxRelDiff(got, want []float64) float64 {
	diff, scale := 0.0, 0.0
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	return diff / scale
}

// TestM2LLevelMatchesPerPair runs every V-list level of uniform and
// adaptive (sphere-surface) trees through the level kernel and checks
// each target's check potentials against the per-pair reference to
// 1e-14 relative: homogeneous (Laplace), per-level (ModLaplace) and
// 3×3 (Kelvin) tensors, single and batched right-hand sides, and p=5,
// whose 405-frequency half-spectrum is not a whole number of chunks.
func TestM2LLevelMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trees := []struct {
		name string
		pts  []float64
	}{
		{"uniform", geom.Flatten(geom.UniformCube(rng, 700))},
		{"sphere", geom.Flatten(geom.SphereGrid(rng, 700, 1, 0.45))},
	}
	kerns := []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewKelvin(1, 0.3)}
	cases := []struct{ p, nq int }{{6, 1}, {5, 3}}
	for _, tc := range trees {
		tr, err := tree.Build(tc.pts, tc.pts, tree.Config{MaxPoints: 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kerns {
			for _, c := range cases {
				if testing.Short() && (c.p == 6 || k.SourceDim() > 1) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/p=%d/nq=%d", tc.name, k.Name(), c.p, c.nq), func(t *testing.T) {
					checkTreeLevels(t, rng, tr, k, c.p, c.nq)
				})
			}
		}
	}
}

func checkTreeLevels(t *testing.T, rng *rand.Rand, tr *tree.Tree, k kernels.Kernel, p, nq int) {
	s, err := NewSet(k, p, tr.HalfWidth, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFFTM2L(s)
	defer f.Close()
	ref := newRefM2L(f)
	isTarget := func(bi int32) bool { return tr.Boxes[bi].TrgCount > 0 }
	isSource := func(bi int32) bool { return tr.Boxes[bi].SrcCount > 0 }
	levels := 0
	for l := 2; l < tr.Depth(); l++ {
		lv := f.PlanTreeLevel(tr, l, isTarget, isSource)
		if lv.numGroups() == 0 {
			continue
		}
		levels++
		phis := make([][]float64, len(lv.Sources()))
		spec := make([][][]complex128, len(phis))
		for i := range phis {
			phis[i] = randomDensities(rng, nq*s.EquivCount())
			spec[i] = ref.spectra(phis[i], nq)
		}
		got := runLevel(lv, phis, nq)
		var gotAll, wantAll []float64
		targets := 0
		for g := 0; g < lv.numGroups(); g++ {
			for _, tg := range groupTargets(tr, lv, g, isSource) {
				targets++
				if got[tg.Box] == nil {
					t.Fatalf("level %d: target box %d got no check potentials", l, tg.Box)
				}
				gotAll = append(gotAll, got[tg.Box]...)
				wantAll = append(wantAll, ref.apply(l, tg, spec, nq)...)
			}
		}
		if targets != len(got) {
			t.Fatalf("level %d: %d targets written, %d planned", l, len(got), targets)
		}
		if e := maxRelDiff(gotAll, wantAll); e > 1e-14 {
			t.Errorf("level %d: level kernel differs from the per-pair reference by %.3g relative", l, e)
		}
	}
	if levels == 0 {
		t.Fatal("tree has no V-list level")
	}
}

// groupTargets rebuilds group g's targets (box, V-list slots and
// offsets in V-list order) from the tree, independently of the plan.
func groupTargets(tr *tree.Tree, lv *M2LLevel, g int, isSource func(int32) bool) []m2lTarget {
	slot := map[int32]int32{}
	for i, a := range lv.Sources() {
		slot[a] = int32(i)
	}
	var out []m2lTarget
	for _, box := range lv.boxes[chunkLen*g : chunkLen*(g+1)] {
		if box < 0 {
			continue
		}
		b := &tr.Boxes[box]
		tg := m2lTarget{Box: box}
		bx, by, bz := b.Key.Decode()
		for _, a := range b.V {
			if !isSource(a) {
				continue
			}
			ax, ay, az := tr.Boxes[a].Key.Decode()
			tg.Src = append(tg.Src, slot[a])
			tg.Off = append(tg.Off, [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)})
		}
		out = append(out, tg)
	}
	return out
}

// TestM2LTreePlanGroupsSiblings: tree plans group targets by parent,
// at most 4 per group, every target with a V-list source exactly once,
// and one entry per source of a group.
func TestM2LTreePlanGroupsSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := geom.Flatten(geom.SphereGrid(rng, 1500, 2, 0.3))
	tr, err := tree.Build(pts, pts, tree.Config{MaxPoints: 20})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSet(kernels.Laplace{}, 4, tr.HalfWidth, 0)
	f := NewFFTM2L(s)
	defer f.Close()
	all := func(int32) bool { return true }
	short := 0
	for l := 2; l < tr.Depth(); l++ {
		lv := f.PlanTreeLevel(tr, l, all, all)
		seen := map[int32]bool{}
		for g := 0; g < lv.numGroups(); g++ {
			members := 0
			parent := int32(-2)
			for _, box := range lv.boxes[chunkLen*g : chunkLen*(g+1)] {
				if box < 0 {
					continue
				}
				members++
				if seen[box] {
					t.Fatalf("level %d: box %d planned twice", l, box)
				}
				seen[box] = true
				if p := tr.Boxes[box].Parent; parent != -2 && p != parent {
					t.Fatalf("level %d group %d mixes parents %d and %d", l, g, parent, p)
				} else {
					parent = p
				}
			}
			if members < chunkLen {
				short++
			}
			// Siblings' V lists follow one common order, so the merge
			// shares a single entry per source.
			slots := map[int32]bool{}
			for e := lv.groupAt[g]; e < lv.groupAt[g+1]; e++ {
				if slots[lv.ents[5*e]] {
					t.Fatalf("level %d group %d: source slot %d has two entries", l, g, lv.ents[5*e])
				}
				slots[lv.ents[5*e]] = true
			}
		}
		for bi := tr.LevelStart[l]; bi < tr.LevelStart[l+1]; bi++ {
			if want := len(tr.Boxes[bi].V) > 0; seen[int32(bi)] != want {
				t.Fatalf("level %d box %d: planned=%v, has V list=%v", l, bi, seen[int32(bi)], want)
			}
		}
	}
	if short == 0 {
		t.Error("adaptive tree produced no short (zero-padded) group")
	}
}

// groupingCase is a 4-member group over 5 source slots whose members
// share some sources at different offsets.
var groupingCase = []m2lTarget{
	{Box: 0, Src: []int32{0, 2, 4}, Off: [][3]int{{2, 0, -2}, {-2, 3, 1}, {0, 0, 3}}},
	{Box: 1, Src: []int32{1, 2}, Off: [][3]int{{3, 3, 3}, {-2, 2, 0}}},
	{Box: 2, Src: []int32{4, 0}, Off: [][3]int{{-3, 0, 0}, {2, 2, 2}}},
	{Box: 3, Src: []int32{3}, Off: [][3]int{{0, -3, 2}}},
}

// TestM2LGroupingIsBitwiseNeutral: a target accumulates the same bits
// alone as in a 4-member group with zero-tensor padding.
func TestM2LGroupingIsBitwiseNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		const level, nsrc, nq = 2, 5, 3
		phis := make([][]float64, nsrc)
		for i := range phis {
			phis[i] = randomDensities(rng, nq*s.EquivCount())
		}
		grouped := runLevel(planLevel(f, level, nsrc, [][]m2lTarget{groupingCase}), phis, nq)
		for _, m := range groupingCase {
			alone := runLevel(planLevel(f, level, nsrc, [][]m2lTarget{{m}}), phis, nq)[m.Box]
			for i, v := range grouped[m.Box] {
				if v != alone[i] {
					t.Fatalf("%s box %d: grouped %v vs alone %v at %d", k.Name(), m.Box, v, alone[i], i)
				}
			}
		}
		f.Close()
	}
}

// TestFFTM2LBatchMatchesSingle: a batch of right-hand sides must
// produce bitwise-identical check potentials to one call per rhs.
func TestFFTM2LBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		const level, nsrc, nq = 2, 5, 3
		ne, nc := s.EquivCount(), s.CheckCount()
		phis := make([][]float64, nsrc)
		for i := range phis {
			phis[i] = randomDensities(rng, nq*ne)
		}
		lv := planLevel(f, level, nsrc, [][]m2lTarget{groupingCase})
		batch := runLevel(lv, phis, nq)
		for q := 0; q < nq; q++ {
			one := make([][]float64, nsrc)
			for i := range one {
				one[i] = phis[i][q*ne : (q+1)*ne]
			}
			single := runLevel(lv, one, 1)
			for _, m := range groupingCase {
				for i, v := range single[m.Box] {
					if got := batch[m.Box][q*nc+i]; got != v {
						t.Fatalf("%s box %d rhs %d: batch %v vs single %v at %d", k.Name(), m.Box, q, got, v, i)
					}
				}
			}
		}
		f.Close()
	}
}

// singlePair runs one target with one source at offset off.
func singlePair(f *FFTM2L, level int, off [3]int, phi []float64) []float64 {
	lv := planLevel(f, level, 1, [][]m2lTarget{{{Box: 0, Src: []int32{0}, Off: [][3]int{off}}}})
	return runLevel(lv, [][]float64{phi}, 1)[0]
}

// TestFFTM2LMatchesDense: the Fourier path must reproduce the dense M2L
// translation to near machine precision for every kernel and a sample of
// V-list offsets.
func TestFFTM2LMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offsets := [][3]int{
		{2, 0, 0}, {-2, 0, 0}, {3, 3, 3}, {-3, 2, -2}, {0, 2, -3}, {2, -2, 2}, {-2, -3, 0},
	}
	for _, k := range testKernels() {
		for _, level := range []int{2, 4} {
			s, err := NewSet(k, 6, 0.7, 0)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFFTM2L(s)
			phi := randomDensities(rng, s.EquivCount())
			for _, off := range offsets {
				want := applyM2LDirect(s, level, off, phi)
				got := singlePair(f, level, off, phi)
				scale := 0.0
				for _, v := range want {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-11*(scale+1) {
						t.Fatalf("%s level=%d off=%v: FFT M2L mismatch at %d: %v vs %v",
							k.Name(), level, off, i, got[i], want[i])
					}
				}
			}
			f.Close()
		}
	}
}

// TestFFTM2LAccumulatesMultipleSources: Fourier-space accumulation over
// several source boxes must equal the sum of dense translations.
func TestFFTM2LAccumulatesMultipleSources(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := kernels.Laplace{}
	s, _ := NewSet(k, 6, 0.5, 0)
	f := NewFFTM2L(s)
	defer f.Close()
	level := 3
	tg := m2lTarget{Src: []int32{0, 1, 2}, Off: [][3]int{{2, 1, 0}, {-3, 0, 2}, {0, -2, 0}}}
	phis := make([][]float64, len(tg.Src))
	want := make([]float64, s.CheckCount())
	for i, off := range tg.Off {
		phis[i] = randomDensities(rng, s.EquivCount())
		s.M2LDirect(level, off).Apply(want, phis[i])
	}
	got := runLevel(planLevel(f, level, len(phis), [][]m2lTarget{{tg}}), phis, 1)[0]
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-11 {
			t.Fatalf("accumulated FFT M2L mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestFFTM2LHalfSpectrumMatchesFullSpectrum: the r2c backend must
// reproduce the full-complex-spectrum convolution to ~1e-12. The
// reference builds the translation on full M³ complex grids
// (fft.Plan3): kernel tensor and embedded density, full-spectrum
// Hadamard, complex inverse, surface read-off.
func TestFFTM2LHalfSpectrumMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range testKernels() {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		level := 3
		off := [3]int{-3, 2, 0}
		sd, td := k.SourceDim(), k.TargetDim()
		phi := randomDensities(rng, s.EquivCount())
		got := singlePair(f, level, off, phi)

		// Full-spectrum reference.
		p, m := s.P, f.M
		plan3 := fft.NewPlan3(m, m, m)
		key, escale, _ := s.scaleFor(level)
		h := surface.Spacing(p, s.geomRadius(key))
		tensor := make([][]complex128, td*sd)
		for c := range tensor {
			tensor[c] = make([]complex128, m*m*m)
		}
		block := make([]float64, td*sd)
		for dx := -(p - 1); dx <= p-1; dx++ {
			for dy := -(p - 1); dy <= p-1; dy++ {
				for dz := -(p - 1); dz <= p-1; dz++ {
					k.Eval(
						h*float64(dx+(p-2)*off[0]),
						h*float64(dy+(p-2)*off[1]),
						h*float64(dz+(p-2)*off[2]),
						block,
					)
					idx := (wrap(dx, m)*m+wrap(dy, m))*m + wrap(dz, m)
					for c, v := range block {
						tensor[c][idx] = complex(v, 0)
					}
				}
			}
		}
		for c := range tensor {
			plan3.Forward(tensor[c])
		}
		src := make([][]complex128, sd)
		for c := range src {
			src[c] = make([]complex128, m*m*m)
			for si, vi := range s.Surf.VolIdx {
				x := vi / (p * p)
				y := vi / p % p
				z := vi % p
				src[c][(x*m+y)*m+z] = complex(phi[si*sd+c], 0)
			}
			plan3.Forward(src[c])
		}
		want := make([]float64, s.CheckCount())
		for a := 0; a < td; a++ {
			full := make([]complex128, m*m*m)
			for b := 0; b < sd; b++ {
				hadamardAdd(full, tensor[a*sd+b], src[b])
			}
			plan3.Inverse(full)
			for si, vi := range s.Surf.VolIdx {
				x := vi / (p * p)
				y := vi / p % p
				z := vi % p
				want[si*td+a] += escale * real(full[(x*m+y)*m+z])
			}
		}

		scale := 0.0
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(scale+1) {
				t.Fatalf("%s: half vs full spectrum mismatch at %d: %v vs %v",
					k.Name(), i, got[i], want[i])
			}
		}
		f.Close()
	}
}

// TestM2LChunkLayoutRoundTrip: scattering a half-spectrum into chunks
// and gathering it back is the identity, and padding frequencies are
// zero.
func TestM2LChunkLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, gl := range []int{405, 1008} {
		g := make([]complex128, gl)
		for i := range g {
			g[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		gf := (gl + chunkLen - 1) / chunkLen * chunkFloats
		dst := make([]float64, gf)
		for i := range dst {
			dst[i] = math.NaN()
		}
		toChunks(dst, g)
		for j := gl; j < gf/2; j++ {
			o := j/chunkLen*chunkFloats + j%chunkLen
			if dst[o] != 0 || dst[o+chunkLen] != 0 {
				t.Fatalf("gl=%d: padding frequency %d = (%v, %v)", gl, j, dst[o], dst[o+chunkLen])
			}
		}
		back := make([]complex128, gl)
		fromChunks(back, dst)
		for i := range g {
			if back[i] != g[i] {
				t.Fatalf("gl=%d: frequency %d round-trips to %v, want %v", gl, i, back[i], g[i])
			}
		}
	}
}

// randomGroupCall draws a group-kernel call over random spectra and
// tensors: tensor grid 0 is the zero grid, and entries pick it often,
// as padded sibling groups do.
func randomGroupCall(rng *rand.Rand) (acc []float64, accStride int, src []float64, ten [][]float64, toff int, ents []int, nch int) {
	nch = 1 + rng.Intn(40)
	n := nch * chunkFloats
	toff = chunkFloats * rng.Intn(3)
	const nsrc, nten = 7, 5
	fill := func(x []float64) {
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	src = make([]float64, nsrc*n)
	fill(src)
	ten = make([][]float64, nten)
	for i := range ten {
		ten[i] = make([]float64, toff+n)
		if i > 0 {
			fill(ten[i])
		}
	}
	nents := 1 + rng.Intn(30)
	for e := 0; e < nents; e++ {
		ents = append(ents, rng.Intn(nsrc)*n)
		for k := 0; k < chunkLen; k++ {
			id := 0
			if rng.Intn(3) > 0 {
				id = rng.Intn(nten)
			}
			ents = append(ents, id)
		}
	}
	accStride = n + chunkFloats*rng.Intn(3)
	acc = make([]float64, 3*accStride+n)
	fill(acc)
	return acc, accStride, src, ten, toff, ents, nch
}

// BenchmarkM2LHadamard times the Fourier-space multiply-accumulate of
// every V pair of a 20k-point uniform tree at degree 6 (the FFTs are
// excluded): "perpair" is the per-pair complex loop, "go" the portable
// group kernel, "selected" the kernel this CPU runs.
func BenchmarkM2LHadamard(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	pts := geom.Flatten(geom.UniformCube(rng, 20000))
	tr, err := tree.Build(pts, pts, tree.Config{MaxPoints: 60})
	if err != nil {
		b.Fatal(err)
	}
	s, _ := NewSet(kernels.Laplace{}, 6, tr.HalfWidth, 0)
	f := NewFFTM2L(s)
	defer f.Close()
	all := func(int32) bool { return true }
	type level struct {
		lv   *M2LLevel
		spec []float64
		tgs  [][]m2lTarget
		cspc [][]complex128
	}
	var levels []level
	pairs := 0
	for l := 2; l < tr.Depth(); l++ {
		lv := f.PlanTreeLevel(tr, l, all, all)
		spec := make([]float64, lv.SpecLen(1))
		for i := range spec {
			spec[i] = rng.NormFloat64()
		}
		cspc := make([][]complex128, len(lv.Sources()))
		for i := range cspc {
			cspc[i] = make([]complex128, f.gl)
			fromChunks(cspc[i], spec[i*f.gf:])
		}
		var tgs [][]m2lTarget
		for g := 0; g < lv.numGroups(); g++ {
			tgs = append(tgs, groupTargets(tr, lv, g, all))
			pairs += lv.pairs[g]
		}
		levels = append(levels, level{lv, spec, tgs, cspc})
	}
	ref := newRefM2L(f)
	key, _, _ := s.scaleFor(2)
	r := s.geomRadius(key)
	b.Run("perpair", func(b *testing.B) {
		acc := make([]complex128, f.gl)
		for i := 0; i < b.N; i++ {
			for _, lvl := range levels {
				for _, grp := range lvl.tgs {
					for _, tg := range grp {
						clear(acc)
						for j, src := range tg.Src {
							hadamardAdd(acc, ref.tensor(r, tg.Off[j])[0], lvl.cspc[src])
						}
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	})
	kernelsToRun := []struct {
		name string
		fn   func(acc []float64, accStride int, src []float64, ten [][]float64, toff int, ents []int, nch int)
	}{{"go", m2lGroupGo}, {"selected", groupKernel}}
	for _, kr := range kernelsToRun {
		b.Run(kr.name, func(b *testing.B) {
			saved := groupKernel
			groupKernel = kr.fn
			defer func() { groupKernel = saved }()
			var sc M2LScratch
			for i := 0; i < b.N; i++ {
				for _, lvl := range levels {
					lv := lvl.lv
					for t := 0; t < lv.Tiles(); t++ {
						g0 := t * lv.tileGroups()
						lv.accumulate(g0, min(g0+lv.tileGroups(), lv.numGroups()), lvl.spec, 1, 0, 0, &sc)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}
