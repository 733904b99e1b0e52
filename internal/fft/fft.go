// Package fft implements complex and real-input discrete Fourier
// transforms of arbitrary length and 3-D transforms built from them. It
// replaces the FFTW dependency of the paper's implementation; the FMM
// uses it to turn M2L translations into circular convolutions over the
// regular equivalent-surface lattice (paper Section 1: "the
// multipole-to-local translations are accelerated using local FFTs").
//
// The transform is a recursive mixed-radix Cooley–Tukey decomposition.
// The FMM always chooses 5-smooth grid sizes, so the hot path runs
// entirely on hardcoded radix-2/3/4/5 butterfly kernels (twiddles read
// straight from the precomputed root table, no modular index
// arithmetic); other lengths are supported for generality through a
// generic combine step and an O(p²) direct DFT for prime factors >= 7.
//
// Densities and kernel tensors in the FMM are purely real, so the
// package also provides real-to-complex transforms (ForwardReal /
// InverseReal and the 3-D Plan3R): conjugate symmetry means only
// ⌊n/2⌋+1 of the n Fourier coefficients are independent, halving the
// storage, Hadamard and inverse-transform work of the convolution.
package fft

import (
	"math"
	"math/cmplx"
	"sync"
)

// Plan holds the precomputed root table for transforms of one length.
// A Plan is immutable after creation and safe for concurrent use.
type Plan struct {
	n       int
	w       []complex128 // w[j] = exp(-2πi j/n)
	winv    []complex128 // winv[j] = exp(+2πi j/n)
	factors []int        // mixed-radix factorization of n (4s first, then 2, 3, 5, primes)
	scratch int          // gather scratch for generic combines (largest factor >= 7, else 0)
	half    *Plan        // length n/2 companion for the even-length real transforms
}

// NewPlan creates a transform plan for length n >= 1.
func NewPlan(n int) *Plan {
	p := newPlan(n)
	if n%2 == 0 {
		// Companion plan for the packed even-length real transforms. One
		// level suffices — the real path only ever halves once.
		p.half = newPlan(n / 2)
	}
	return p
}

// newPlan builds the root table and factorization for one length,
// without the real-transform companion.
func newPlan(n int) *Plan {
	if n < 1 {
		panic("fft: length must be >= 1")
	}
	p := &Plan{n: n, w: make([]complex128, n), winv: make([]complex128, n)}
	for j := 0; j < n; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		p.w[j] = complex(c, s)
		p.winv[j] = complex(c, -s)
	}
	p.factors = factorize(n)
	for _, f := range p.factors {
		if f >= 7 && f > p.scratch {
			p.scratch = f
		}
	}
	return p
}

// factorize returns the mixed-radix factor list: radix-4 stages first
// (fewer, wider butterflies than radix-2 pairs), then at most one 2,
// then 3s, 5s, and any remaining primes ascending.
func factorize(n int) []int {
	var fs []int
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	if n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for n%3 == 0 {
		fs = append(fs, 3)
		n /= 3
	}
	for n%5 == 0 {
		fs = append(fs, 5)
		n /= 5
	}
	for f := 7; f*f <= n; f += 2 {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// HalfLen returns the number of independent Fourier coefficients of a
// real input of this length: n/2 + 1 (conjugate symmetry determines the
// rest).
func (p *Plan) HalfLen() int { return p.n/2 + 1 }

// ScratchLen returns the gather-scratch length one transform of this
// plan needs (see ForwardScratch). It is zero for 5-smooth lengths,
// whose butterflies are all hardcoded.
func (p *Plan) ScratchLen() int { return p.scratch }

// RealScratchLen returns the scratch length ForwardRealScratch and
// InverseRealScratch need.
func (p *Plan) RealScratchLen() int {
	if p.half != nil {
		return p.n + p.half.scratch
	}
	return 2*p.n + p.scratch
}

// Forward computes dst = DFT(src) (negative exponent, unscaled).
// dst and src must both have length n and must not alias.
func (p *Plan) Forward(dst, src []complex128) {
	p.ForwardScratch(dst, src, make([]complex128, p.scratch))
}

// ForwardScratch is Forward with caller-provided gather scratch (length
// >= ScratchLen()); bulk transforms like Plan3 reuse one buffer across
// thousands of lines instead of allocating per call.
func (p *Plan) ForwardScratch(dst, src, scratch []complex128) {
	p.check(dst, src)
	p.rec(dst, src, p.n, 1, 1, 0, p.w, -1, scratch)
}

// Inverse computes dst = IDFT(src), scaled by 1/n so that
// Inverse(Forward(x)) == x. dst and src must not alias.
func (p *Plan) Inverse(dst, src []complex128) {
	p.InverseScratch(dst, src, make([]complex128, p.scratch))
}

// InverseScratch is Inverse with caller-provided gather scratch (length
// >= ScratchLen()).
func (p *Plan) InverseScratch(dst, src, scratch []complex128) {
	p.check(dst, src)
	p.rec(dst, src, p.n, 1, 1, 0, p.winv, 1, scratch)
	inv := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

// ForwardReal computes the first HalfLen() coefficients of the DFT of a
// real signal (the remaining ones follow from X[n-k] = conj(X[k])).
// dst must have length HalfLen(), src length n.
func (p *Plan) ForwardReal(dst []complex128, src []float64) {
	p.ForwardRealScratch(dst, src, make([]complex128, p.RealScratchLen()))
}

// ForwardRealScratch is ForwardReal with caller-provided scratch
// (length >= RealScratchLen()).
//
// For even n the real line is packed into a half-length complex signal
// (z[j] = x[2j] + i·x[2j+1]), transformed with the half-length plan and
// unpacked — a real transform at roughly half the complex cost. Odd
// lengths fall back to a full complex transform.
func (p *Plan) ForwardRealScratch(dst []complex128, src []float64, scratch []complex128) {
	n := p.n
	if len(dst) != p.HalfLen() || len(src) != n {
		panic("fft: slice length does not match plan")
	}
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return
	}
	if p.half == nil {
		// Odd length: widen to complex and keep the first half spectrum.
		in := scratch[:n]
		out := scratch[n : 2*n]
		for j, v := range src {
			in[j] = complex(v, 0)
		}
		p.rec(out, in, n, 1, 1, 0, p.w, -1, scratch[2*n:])
		copy(dst, out[:len(dst)])
		return
	}
	m := n / 2
	z := scratch[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	zf := scratch[m : 2*m]
	p.half.rec(zf, z, m, 1, 1, 0, p.half.w, -1, scratch[2*m:])
	// Unpack: with E/O the spectra of the even/odd samples,
	// E[k] = (Z[k]+conj(Z[m-k]))/2, O[k] = -i(Z[k]-conj(Z[m-k]))/2 and
	// X[k] = E[k] + w_n^k O[k] for k = 0..m (indices mod m).
	for k := 0; k <= m; k++ {
		zk := zf[0]
		if k < m {
			zk = zf[k]
		}
		zmk := zf[0]
		if k > 0 && k < m {
			zmk = zf[m-k]
		}
		cz := complex(real(zmk), -imag(zmk))
		e := scale(zk+cz, 0.5)
		o := scale(zk-cz, 0.5)
		o = complex(imag(o), -real(o)) // -i * o
		dst[k] = e + p.w[k]*o
	}
}

// InverseReal computes the real inverse DFT (scaled by 1/n) of a
// conjugate-symmetric spectrum given by its first HalfLen()
// coefficients, so that InverseReal(ForwardReal(x)) == x. dst must have
// length n, src length HalfLen(). src is read-only.
func (p *Plan) InverseReal(dst []float64, src []complex128) {
	p.InverseRealScratch(dst, src, make([]complex128, p.RealScratchLen()))
}

// InverseRealScratch is InverseReal with caller-provided scratch
// (length >= RealScratchLen()).
func (p *Plan) InverseRealScratch(dst []float64, src []complex128, scratch []complex128) {
	n := p.n
	if len(dst) != n || len(src) != p.HalfLen() {
		panic("fft: slice length does not match plan")
	}
	if n == 1 {
		dst[0] = real(src[0])
		return
	}
	if p.half == nil {
		// Odd length: rebuild the full spectrum by symmetry and take the
		// real part of a complex inverse.
		full := scratch[:n]
		copy(full, src)
		for j := len(src); j < n; j++ {
			v := src[n-j]
			full[j] = complex(real(v), -imag(v))
		}
		out := scratch[n : 2*n]
		p.rec(out, full, n, 1, 1, 0, p.winv, 1, scratch[2*n:])
		inv := 1 / float64(n)
		for j := 0; j < n; j++ {
			dst[j] = real(out[j]) * inv
		}
		return
	}
	// Repack: Z[k] = E[k] + i·O[k] with E[k] = (X[k]+conj(X[m-k]))/2 and
	// O[k] = w_n^{-k}(X[k]-conj(X[m-k]))/2; the half-length inverse then
	// yields z[j] = x[2j] + i·x[2j+1] (its 1/m scaling is exactly the 1/n
	// the full inverse needs).
	m := n / 2
	zf := scratch[:m]
	for k := 0; k < m; k++ {
		xk := src[k]
		xmk := src[m-k]
		cx := complex(real(xmk), -imag(xmk))
		e := scale(xk+cx, 0.5)
		o := scale(xk-cx, 0.5) * p.winv[k]
		zf[k] = e + complex(-imag(o), real(o)) // e + i*o
	}
	z := scratch[m : 2*m]
	p.half.rec(z, zf, m, 1, 1, 0, p.half.winv, 1, scratch[2*m:])
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j]) * inv
		dst[2*j+1] = imag(z[j]) * inv
	}
}

func (p *Plan) check(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic("fft: slice length does not match plan")
	}
	if p.n > 0 && &dst[0] == &src[0] {
		panic("fft: dst must not alias src")
	}
}

// rec computes an n-point DFT of src (elements src[0], src[stride], ...)
// into dst (contiguous). wstep is N/n where N is the plan length; depth
// indexes into the factor list; sign is -1 for the forward direction
// and +1 for the inverse (it orients the hardcoded butterflies; the
// matching root table w is passed alongside); buf is gather scratch for
// the generic combine of factors >= 7.
func (p *Plan) rec(dst, src []complex128, n, stride, wstep, depth int, w []complex128, sign float64, buf []complex128) {
	switch n {
	case 1:
		dst[0] = src[0]
		return
	case 2:
		leaf2(dst, src, stride)
		return
	case 3:
		leaf3(dst, src, stride, sign)
		return
	case 4:
		leaf4(dst, src, stride, sign)
		return
	case 5:
		leaf5(dst, src, stride, sign)
		return
	}
	f := p.factors[depth]
	m := n / f
	if m == 1 {
		// Direct DFT for a prime length >= 7.
		for k := 0; k < n; k++ {
			s := complex(0, 0)
			for j := 0; j < n; j++ {
				s += src[j*stride] * w[(j*k%n)*wstep]
			}
			dst[k] = s
		}
		return
	}
	// Decimation in time: f interleaved sub-transforms of length m,
	// combined with f-point butterflies.
	for a := 0; a < f; a++ {
		p.rec(dst[a*m:(a+1)*m], src[a*stride:], m, stride*f, wstep*f, depth+1, w, sign, buf)
	}
	switch f {
	case 2:
		combine2(dst, m, wstep, w)
	case 3:
		combine3(dst, m, wstep, w, sign)
	case 4:
		combine4(dst, m, wstep, w, sign)
	case 5:
		combine5(dst, m, wstep, w, sign)
	default:
		combineGeneric(dst, n, f, m, wstep, w, buf)
	}
}

// muli returns i*sign*z.
func muli(z complex128, sign float64) complex128 {
	return complex(-sign*imag(z), sign*real(z))
}

// scale returns s*z for real s. Halving goes through scale too: z/2
// would call the runtime's general complex division.
func scale(z complex128, s float64) complex128 {
	return complex(s*real(z), s*imag(z))
}

func leaf2(dst, src []complex128, stride int) {
	x0, x1 := src[0], src[stride]
	dst[0] = x0 + x1
	dst[1] = x0 - x1
}

const sin60 = 0.8660254037844386 // sin(π/3)

func leaf3(dst, src []complex128, stride int, sign float64) {
	x0, x1, x2 := src[0], src[stride], src[2*stride]
	s := x1 + x2
	d := muli(scale(x1-x2, sin60), sign)
	u := x0 - scale(s, 0.5)
	dst[0] = x0 + s
	dst[1] = u + d
	dst[2] = u - d
}

func leaf4(dst, src []complex128, stride int, sign float64) {
	x0, x1 := src[0], src[stride]
	x2, x3 := src[2*stride], src[3*stride]
	a, b := x0+x2, x0-x2
	c, d := x1+x3, muli(x1-x3, sign)
	dst[0] = a + c
	dst[1] = b + d
	dst[2] = a - c
	dst[3] = b - d
}

// 5th roots of unity: cos/sin of 2π/5 and 4π/5.
const (
	cos5a = 0.30901699437494745
	cos5b = -0.8090169943749475
	sin5a = 0.9510565162951535
	sin5b = 0.5877852522924731
)

func leaf5(dst, src []complex128, stride int, sign float64) {
	x0 := src[0]
	x1, x2 := src[stride], src[2*stride]
	x3, x4 := src[3*stride], src[4*stride]
	p1, m1 := x1+x4, x1-x4
	p2, m2 := x2+x3, x2-x3
	u1 := x0 + scale(p1, cos5a) + scale(p2, cos5b)
	u2 := x0 + scale(p1, cos5b) + scale(p2, cos5a)
	v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
	v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
	dst[0] = x0 + p1 + p2
	dst[1] = u1 + v1
	dst[2] = u2 + v2
	dst[3] = u2 - v2
	dst[4] = u1 - v1
}

// The combine kernels implement the Cooley–Tukey recombination
// X[c+d*m] = Σ_a ω_f^{ad} (w_n^{ac} Y_a[c]) for one hardcoded radix f:
// twiddle each sub-transform output, then apply the same butterfly as
// the matching leaf kernel. Twiddle indices a*c*wstep stay below the
// table length by construction (a*c <= (f-1)(m-1) < n), so no modular
// reduction is needed.

func combine2(dst []complex128, m, wstep int, w []complex128) {
	for c := 0; c < m; c++ {
		t := w[c*wstep] * dst[m+c]
		x := dst[c]
		dst[c] = x + t
		dst[m+c] = x - t
	}
}

func combine3(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		x0 := dst[c]
		s := t1 + t2
		d := muli(scale(t1-t2, sin60), sign)
		u := x0 - scale(s, 0.5)
		dst[c] = x0 + s
		dst[m+c] = u + d
		dst[2*m+c] = u - d
	}
}

func combine4(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		t3 := w[3*c*wstep] * dst[3*m+c]
		x0 := dst[c]
		a, b := x0+t2, x0-t2
		s, d := t1+t3, muli(t1-t3, sign)
		dst[c] = a + s
		dst[m+c] = b + d
		dst[2*m+c] = a - s
		dst[3*m+c] = b - d
	}
}

func combine5(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		t3 := w[3*c*wstep] * dst[3*m+c]
		t4 := w[4*c*wstep] * dst[4*m+c]
		x0 := dst[c]
		p1, m1 := t1+t4, t1-t4
		p2, m2 := t2+t3, t2-t3
		u1 := x0 + scale(p1, cos5a) + scale(p2, cos5b)
		u2 := x0 + scale(p1, cos5b) + scale(p2, cos5a)
		v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
		v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
		dst[c] = x0 + p1 + p2
		dst[m+c] = u1 + v1
		dst[2*m+c] = u2 + v2
		dst[3*m+c] = u2 - v2
		dst[4*m+c] = u1 - v1
	}
}

// combineGeneric is the fallback recombination for prime factors >= 7;
// g is gather scratch of length >= f.
func combineGeneric(dst []complex128, n, f, m, wstep int, w []complex128, g []complex128) {
	g = g[:f]
	for c := 0; c < m; c++ {
		for a := 0; a < f; a++ {
			g[a] = dst[a*m+c]
		}
		for d := 0; d < f; d++ {
			k := c + d*m
			s := g[0]
			for a := 1; a < f; a++ {
				s += g[a] * w[(a*k%n)*wstep]
			}
			dst[k] = s
		}
	}
}

// NextSmooth returns the smallest 5-smooth integer (only prime factors
// 2, 3, 5) greater than or equal to n. The FMM picks convolution grid
// sizes with it so that every FFT factor has a fast butterfly.
func NextSmooth(n int) int {
	if n < 1 {
		return 1
	}
	for m := n; ; m++ {
		k := m
		for _, f := range []int{2, 3, 5} {
			for k%f == 0 {
				k /= f
			}
		}
		if k == 1 {
			return m
		}
	}
}

// Plan3 performs 3-D transforms on row-major data indexed [x][y][z]
// (z fastest). It is immutable and safe for concurrent use.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *Plan
}

// NewPlan3 creates a 3-D plan for an nx x ny x nz grid.
func NewPlan3(nx, ny, nz int) *Plan3 {
	p3 := &Plan3{nx: nx, ny: ny, nz: nz, px: NewPlan(nx)}
	p3.py = p3.px
	if ny != nx {
		p3.py = NewPlan(ny)
	}
	switch nz {
	case nx:
		p3.pz = p3.px
	case ny:
		p3.pz = p3.py
	default:
		p3.pz = NewPlan(nz)
	}
	return p3
}

// Size returns the total number of grid points nx*ny*nz.
func (p *Plan3) Size() int { return p.nx * p.ny * p.nz }

// Forward computes the in-place 3-D forward DFT of x (length Size).
func (p *Plan3) Forward(x []complex128) { p.apply(x, false) }

// Inverse computes the in-place 3-D inverse DFT of x, scaled by 1/Size.
func (p *Plan3) Inverse(x []complex128) { p.apply(x, true) }

func (p *Plan3) apply(x []complex128, inverse bool) {
	if len(x) != p.Size() {
		panic("fft: grid length does not match 3-D plan")
	}
	maxN := p.nx
	if p.ny > maxN {
		maxN = p.ny
	}
	if p.nz > maxN {
		maxN = p.nz
	}
	in := make([]complex128, maxN)
	out := make([]complex128, maxN)
	maxScratch := p.px.scratch
	if p.py.scratch > maxScratch {
		maxScratch = p.py.scratch
	}
	if p.pz.scratch > maxScratch {
		maxScratch = p.pz.scratch
	}
	scratch := make([]complex128, maxScratch)
	line := func(pl *Plan, base, stride, n int) {
		for i := 0; i < n; i++ {
			in[i] = x[base+i*stride]
		}
		if inverse {
			pl.InverseScratch(out[:n], in[:n], scratch)
		} else {
			pl.ForwardScratch(out[:n], in[:n], scratch)
		}
		for i := 0; i < n; i++ {
			x[base+i*stride] = out[i]
		}
	}
	// Along z (contiguous).
	for ix := 0; ix < p.nx; ix++ {
		for iy := 0; iy < p.ny; iy++ {
			line(p.pz, (ix*p.ny+iy)*p.nz, 1, p.nz)
		}
	}
	// Along y.
	for ix := 0; ix < p.nx; ix++ {
		for iz := 0; iz < p.nz; iz++ {
			line(p.py, ix*p.ny*p.nz+iz, p.nz, p.ny)
		}
	}
	// Along x.
	for iy := 0; iy < p.ny; iy++ {
		for iz := 0; iz < p.nz; iz++ {
			line(p.px, iy*p.nz+iz, p.ny*p.nz, p.nx)
		}
	}
}

// Plan3R performs real-input 3-D transforms on a cubic m×m×m grid.
// The forward transform maps real row-major data indexed [x][y][z]
// (z fastest) to the half spectrum indexed [kx][ky][kz] with
// kz in [0, m/2+1): the z-dimension keeps only its independent Fourier
// lines (real input makes F[-kx,-ky,-kz] = conj(F[kx,ky,kz])), so a
// convolution pays ~half the Hadamard, storage and inverse-transform
// cost of the full complex grid. Multiplying two half spectra
// element-wise and inverse-transforming computes the circular
// convolution of the real inputs exactly.
//
// A Plan3R is immutable and safe for concurrent use (per-call work
// buffers are pooled internally).
type Plan3R struct {
	m, k int
	p    *Plan
	pool sync.Pool
}

// r3scratch carries one in-flight transform's line buffers.
type r3scratch struct {
	in, out, aux []complex128
}

// NewPlan3R creates a real-input 3-D plan for an m×m×m grid.
func NewPlan3R(m int) *Plan3R {
	p3 := &Plan3R{m: m, k: m/2 + 1, p: NewPlan(m)}
	p3.pool.New = func() any {
		aux := p3.p.RealScratchLen()
		if s := p3.p.ScratchLen(); s > aux {
			aux = s
		}
		return &r3scratch{
			in:  make([]complex128, m),
			out: make([]complex128, m),
			aux: make([]complex128, aux),
		}
	}
	return p3
}

// Edge returns the grid edge length m.
func (p *Plan3R) Edge() int { return p.m }

// HalfLen returns the number of stored z-frequency lines, m/2 + 1.
func (p *Plan3R) HalfLen() int { return p.k }

// RealLen returns the real-grid length m³.
func (p *Plan3R) RealLen() int { return p.m * p.m * p.m }

// FreqLen returns the half-spectrum length m·m·(m/2+1).
func (p *Plan3R) FreqLen() int { return p.m * p.m * p.k }

// Forward computes the half spectrum of the real grid src (length
// RealLen) into dst (length FreqLen). src is read-only.
func (p *Plan3R) Forward(dst []complex128, src []float64) {
	if len(dst) != p.FreqLen() || len(src) != p.RealLen() {
		panic("fft: grid length does not match 3-D real plan")
	}
	m, k := p.m, p.k
	sc := p.pool.Get().(*r3scratch)
	defer p.pool.Put(sc)
	// Along z: real-to-complex, contiguous on both sides.
	for xy := 0; xy < m*m; xy++ {
		p.p.ForwardRealScratch(dst[xy*k:xy*k+k], src[xy*m:xy*m+m], sc.aux)
	}
	// Along y, then x: full complex transforms of the stored lines.
	p.complexPass(dst, sc, false)
}

// Inverse computes the real inverse transform (scaled by 1/m³) of the
// half spectrum src into dst, so that Inverse(Forward(x)) == x.
// src is used as workspace and is garbage afterwards.
func (p *Plan3R) Inverse(dst []float64, src []complex128) {
	if len(dst) != p.RealLen() || len(src) != p.FreqLen() {
		panic("fft: grid length does not match 3-D real plan")
	}
	m, k := p.m, p.k
	sc := p.pool.Get().(*r3scratch)
	defer p.pool.Put(sc)
	p.complexPass(src, sc, true)
	// Along z: complex-to-real reconstruction via conjugate symmetry.
	for xy := 0; xy < m*m; xy++ {
		p.p.InverseRealScratch(dst[xy*m:xy*m+m], src[xy*k:xy*k+k], sc.aux)
	}
}

// complexPass runs the full complex y- and x-dimension transforms over
// the k stored z-frequency lines of grid g (in place), using the
// caller's scratch set.
func (p *Plan3R) complexPass(g []complex128, sc *r3scratch, inverse bool) {
	m, k := p.m, p.k
	line := func(base, stride int) {
		for i := 0; i < m; i++ {
			sc.in[i] = g[base+i*stride]
		}
		if inverse {
			p.p.InverseScratch(sc.out, sc.in, sc.aux)
		} else {
			p.p.ForwardScratch(sc.out, sc.in, sc.aux)
		}
		for i := 0; i < m; i++ {
			g[base+i*stride] = sc.out[i]
		}
	}
	// Along y.
	for ix := 0; ix < m; ix++ {
		for iz := 0; iz < k; iz++ {
			line(ix*m*k+iz, k)
		}
	}
	// Along x.
	for iy := 0; iy < m; iy++ {
		for iz := 0; iz < k; iz++ {
			line(iy*k+iz, m*k)
		}
	}
}

// Convolve3 returns the circular convolution c[t] = Σ_s a[(t-s) mod n] b[s]
// of two cubic grids with side n, computed by direct summation. It is the
// reference implementation used to validate the Fourier-space path.
func Convolve3(a, b []complex128, n int) []complex128 {
	c := make([]complex128, n*n*n)
	idx := func(x, y, z int) int { return (x*n+y)*n + z }
	for tx := 0; tx < n; tx++ {
		for ty := 0; ty < n; ty++ {
			for tz := 0; tz < n; tz++ {
				s := complex(0, 0)
				for sx := 0; sx < n; sx++ {
					for sy := 0; sy < n; sy++ {
						for sz := 0; sz < n; sz++ {
							s += a[idx(mod(tx-sx, n), mod(ty-sy, n), mod(tz-sz, n))] * b[idx(sx, sy, sz)]
						}
					}
				}
				c[idx(tx, ty, tz)] = s
			}
		}
	}
	return c
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// Abs returns |z| (convenience re-export used by tests and the harness).
func Abs(z complex128) float64 { return cmplx.Abs(z) }
