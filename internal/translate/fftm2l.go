package translate

import (
	"sync"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/surface"
)

// FFTM2L implements the FFT-accelerated M2L translation of the paper
// ("the multipole-to-local translations are accelerated using local
// FFTs"). Because the UE surface of a source box and the DC surface of a
// target box at the same level lie on one regular lattice with spacing
// h = 2r/(p-2), the translation
//
//	u[t] = Σ_s G(h·(t - s + (p-2)·k)) φ[s]
//
// is a circular convolution once the surface density is embedded into a
// p³ volume zero-padded to an M³ grid (M = smallest 5-smooth integer
// ≥ 2p-1). Densities and kernel samples are purely real, so the
// convolution runs through the real-input transform fft.Plan3R: only
// the K = M/2+1 independent z-frequency lines of each grid are stored
// and multiplied (conjugate symmetry determines the rest). Per V-list
// offset k the kernel tensor's forward transform is precomputed; each
// source box needs one forward FFT, each target box accumulates
// Hadamard products in Fourier space and performs a single inverse FFT.
//
// All Fourier-space data — kernel tensors, source spectra, target
// accumulators — is stored chunked: the half-spectrum is padded to a
// whole number of 4-frequency chunks, and each chunk holds its 4 real
// parts followed by its 4 imaginary parts (8 float64, one cache line).
// A level's V-list work is planned once (M2LLevel) and runs through one
// group kernel that serves 4 sibling targets per pass, so every source
// chunk is loaded once for 4 targets (checkGroup states its contract).
// On amd64 with AVX the kernel is Go assembly, chosen at start-up;
// everywhere else a pure-Go kernel with the same operation order runs,
// and the two agree bit for bit.
type FFTM2L struct {
	set  *Set
	M    int // padded grid edge
	K    int // stored z-frequency lines, M/2+1
	plan *fft.Plan3R
	gl   int // half-spectrum length M*M*K
	gf   int // float64s per chunked grid: 2*gl rounded up to whole chunks
	// zero is the all-zero chunked grid that pads sibling groups.
	zero []float64
	// closed marks that this backend released its refcount on the
	// tensor cache (Close); accounting only, the backend keeps working.
	closed bool
	mu     sync.Mutex
}

// chunkLen is the number of frequencies per chunk and chunkFloats the
// float64s one chunk occupies (real parts, then imaginary parts).
const (
	chunkLen    = 4
	chunkFloats = 2 * chunkLen
)

// tensorCache shares transformed kernel tensors process-wide, mirroring
// the operator cache in translate.go: tensors depend only on (kernel,
// degree, box half-width, offset), so evaluator sweeps and parallel
// ranks reuse one copy. Tensors are fetched when a level is planned,
// never per pair; builds serialize on tensorBuildMu, keeping the first
// parallel evaluation from building the same tensor on every worker.
var (
	tensorMu      sync.Mutex
	tensorBuildMu sync.Mutex
	tensorCache   = map[tensorKey][]float64{}
	// tensorRefs counts the live FFTM2L backends per (kernel, degree),
	// the granularity CachedBytes attributes at; dividing by it makes
	// the summed footprint of plans sharing tensors count each byte
	// once. Guarded by tensorMu.
	tensorRefs = map[tensorRefKey]int64{}
)

// tensorRefKey groups the tensors one backend attributes: CachedBytes
// matches on kernel and degree (all radii), so refcounts do too.
type tensorRefKey struct {
	kern kernels.Kernel
	p    int
}

type tensorKey struct {
	kern   kernels.Kernel
	p      int
	radius float64
	off    [3]int
}

// NewFFTM2L prepares the FFT M2L backend for an operator set.
func NewFFTM2L(s *Set) *FFTM2L {
	m := fft.NextSmooth(2*s.P - 1)
	tensorMu.Lock()
	tensorRefs[tensorRefKey{kern: s.Kern, p: s.P}]++
	tensorMu.Unlock()
	gl := m * m * (m/2 + 1)
	gf := (gl + chunkLen - 1) / chunkLen * chunkFloats
	return &FFTM2L{
		set:  s,
		M:    m,
		K:    m/2 + 1,
		plan: fft.NewPlan3R(m),
		gl:   gl,
		gf:   gf,
		zero: make([]float64, gf),
	}
}

// Close releases this backend's claim on the process-global tensor
// cache for footprint accounting; the tensors stay cached and the
// backend keeps working. Idempotent.
func (f *FFTM2L) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	tensorMu.Lock()
	k := tensorRefKey{kern: f.set.Kern, p: f.set.P}
	if tensorRefs[k] > 0 {
		tensorRefs[k]--
	}
	tensorMu.Unlock()
}

// M2LScratch is one worker's reusable buffers for the M2L level
// entry points; the zero value is ready to use. A scratch must not be
// shared between concurrent calls.
type M2LScratch struct {
	vol  []float64    // real M³ volume
	cplx []complex128 // half-spectrum grid
	ents []int        // a tile's kernel entry lists
	acc  []float64    // a tile's chunked accumulators
}

func (sc *M2LScratch) volBuf(n int) []float64 {
	if cap(sc.vol) < n {
		sc.vol = make([]float64, n)
	}
	return sc.vol[:n]
}

func (sc *M2LScratch) cplxBuf(n int) []complex128 {
	if cap(sc.cplx) < n {
		sc.cplx = make([]complex128, n)
	}
	return sc.cplx[:n]
}

func (sc *M2LScratch) entsBuf(n int) []int {
	if cap(sc.ents) < n {
		sc.ents = make([]int, n)
	}
	return sc.ents[:n]
}

// accBuf returns n zeroed accumulator floats.
func (sc *M2LScratch) accBuf(n int) []float64 {
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
	}
	acc := sc.acc[:n]
	clear(acc)
	return acc
}

// toChunks scatters a half-spectrum grid into the chunked layout dst
// (gf floats; padding frequencies are zeroed).
func toChunks(dst []float64, g []complex128) {
	clear(dst[len(g)/chunkLen*chunkFloats:])
	for j, v := range g {
		o := j/chunkLen*chunkFloats + j%chunkLen
		dst[o] = real(v)
		dst[o+chunkLen] = imag(v)
	}
}

// fromChunks gathers a chunked grid back into half-spectrum order.
func fromChunks(g []complex128, src []float64) {
	for j := range g {
		o := j/chunkLen*chunkFloats + j%chunkLen
		g[j] = complex(src[o], src[o+chunkLen])
	}
}

// forward zero-pads component c of the real surface density phi
// (sd components per point) into a volume grid, forward-transforms it
// and stores the chunked half-spectrum in dst.
func (f *FFTM2L) forward(phi []float64, c, sd int, dst []float64, sc *M2LScratch) {
	p, m := f.set.P, f.M
	vol := sc.volBuf(m * m * m)
	clear(vol)
	for si, vi := range f.set.Surf.VolIdx {
		// vi indexes the p³ volume: (x*p+y)*p+z.
		x := vi / (p * p)
		y := vi / p % p
		z := vi % p
		vol[(x*m+y)*m+z] = phi[si*sd+c]
	}
	g := sc.cplxBuf(f.gl)
	f.plan.Forward(g, vol)
	toChunks(dst, g)
}

// extractAdd inverse-transforms one chunked accumulator grid and adds
// escale times its surface values into check at component a.
func (f *FFTM2L) extractAdd(acc []float64, a int, escale float64, check []float64, sc *M2LScratch) {
	p, m := f.set.P, f.M
	td := f.set.Kern.TargetDim()
	g := sc.cplxBuf(f.gl)
	fromChunks(g, acc)
	vol := sc.volBuf(m * m * m)
	f.plan.Inverse(vol, g)
	for si, vi := range f.set.Surf.VolIdx {
		x := vi / (p * p)
		y := vi / p % p
		z := vi % p
		check[si*td+a] += escale * vol[(x*m+y)*m+z]
	}
}

// tensor returns (building if needed) the chunked kernel tensor for
// cache key key and offset k: TargetDim*SourceDim grids, component
// pair (a, b) at (a*SourceDim+b)*gf.
func (f *FFTM2L) tensor(key int, k [3]int) []float64 {
	r := f.set.geomRadius(key)
	tk := tensorKey{kern: f.set.Kern, p: f.set.P, radius: r, off: k}
	tensorMu.Lock()
	t, ok := tensorCache[tk]
	tensorMu.Unlock()
	if ok {
		return t
	}
	tensorBuildMu.Lock()
	defer tensorBuildMu.Unlock()
	tensorMu.Lock()
	t, ok = tensorCache[tk]
	tensorMu.Unlock()
	if ok {
		return t
	}
	t = f.buildTensor(r, k)
	tensorMu.Lock()
	tensorCache[tk] = t
	tensorMu.Unlock()
	return t
}

// buildTensor samples the kernel over every lattice offset of the
// translation and forward-transforms each component grid into the
// chunked layout.
func (f *FFTM2L) buildTensor(r float64, k [3]int) []float64 {
	p, m := f.set.P, f.M
	h := surface.Spacing(p, r)
	sd, td := f.set.Kern.SourceDim(), f.set.Kern.TargetDim()
	vols := make([][]float64, td*sd)
	for c := range vols {
		vols[c] = make([]float64, m*m*m)
	}
	block := make([]float64, td*sd)
	for dx := -(p - 1); dx <= p-1; dx++ {
		wx := wrap(dx, m)
		for dy := -(p - 1); dy <= p-1; dy++ {
			wy := wrap(dy, m)
			for dz := -(p - 1); dz <= p-1; dz++ {
				wz := wrap(dz, m)
				f.set.Kern.Eval(
					h*float64(dx+(p-2)*k[0]),
					h*float64(dy+(p-2)*k[1]),
					h*float64(dz+(p-2)*k[2]),
					block,
				)
				idx := (wx*m+wy)*m + wz
				for c, v := range block {
					vols[c][idx] = v
				}
			}
		}
	}
	t := make([]float64, td*sd*f.gf)
	g := make([]complex128, f.gl)
	for c := range vols {
		f.plan.Forward(g, vols[c])
		toChunks(t[c*f.gf:(c+1)*f.gf], g)
	}
	return t
}

// CachedBytes estimates this backend's share of the transformed kernel
// tensors cached for its kernel and degree. The cache is process-global
// and the bytes are divided by the number of live backends over the
// same kernel/degree, so the summed footprint of plans sharing tensors
// counts each byte once; a backend surviving past Close falls back to
// full attribution (conservative, never under-counting).
func (f *FFTM2L) CachedBytes() int64 {
	tensorMu.Lock()
	defer tensorMu.Unlock()
	var b int64
	for tk, t := range tensorCache {
		if tk.kern != f.set.Kern || tk.p != f.set.P {
			continue
		}
		b += int64(len(t)) * 8
	}
	if refs := tensorRefs[tensorRefKey{kern: f.set.Kern, p: f.set.P}]; refs > 1 {
		b /= refs
	}
	return b
}

func wrap(d, m int) int {
	d %= m
	if d < 0 {
		d += m
	}
	return d
}
