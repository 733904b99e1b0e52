package translate

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// m2lGroupAVX is the AVX group kernel: m2lGroupGo's arithmetic on 4
// frequencies per instruction, VMULPD/VADDPD/VSUBPD only (no FMA), in
// the same order. ten points at the tensor grid table, toff is the
// float offset into every tensor grid, nents counts 5-int entries. The
// offsets are not bounds-checked here: callers validate them with
// checkGroup.
//
//go:noescape
func m2lGroupAVX(acc *float64, accStride int, src *float64, ten *[]float64, toff int, ents *int, nents, nch int)

// hasAVX reports whether the CPU implements AVX and the operating
// system saves the YMM registers across context switches.
func hasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	const sseState, avxState = 1 << 1, 1 << 2
	return xcr0&(sseState|avxState) == sseState|avxState
}

func groupAVX(acc []float64, accStride int, src []float64, ten [][]float64, toff int, ents []int, nch int) {
	if len(ents) == 0 || nch == 0 {
		return
	}
	m2lGroupAVX(&acc[0], accStride, &src[0], &ten[0], toff, &ents[0], len(ents)/5, nch)
}

func init() {
	if hasAVX() {
		groupKernel = groupAVX
	}
}
