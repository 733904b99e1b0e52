package translate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestM2LKernelAVXMatchesGo: the AVX kernel and the portable kernel
// produce identical bits on random entry lists, zero-tensor padding
// included, and the AVX kernel is the one selected on CPUs with AVX.
func TestM2LKernelAVXMatchesGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS without AVX: the portable kernel runs")
	}
	if reflect.ValueOf(groupKernel).Pointer() != reflect.ValueOf(groupAVX).Pointer() {
		t.Error("AVX is available but the portable kernel was selected")
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		acc, accStride, src, ten, toff, ents, nch := randomGroupCall(rng)
		want := append([]float64(nil), acc...)
		m2lGroupGo(want, accStride, src, ten, toff, ents, nch)
		groupAVX(acc, accStride, src, ten, toff, ents, nch)
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: AVX %v vs Go %v at %d", trial, acc[i], want[i], i)
			}
		}
	}
}
