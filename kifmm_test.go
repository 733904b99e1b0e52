package kifmm

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/parfmm"
)

// TestNonFiniteCoordinatesRejected: one bad coordinate among 5000
// points fails the plan build with a typed invalid_input error — on the
// single-node and the distributed paths — instead of yielding NaN
// potentials.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		patches := UniformPatches(3, 5000)
		pts := FlattenPatches(patches)
		pts[3*2500+2] = bad
		if _, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace()}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("coordinate %g: NewEvaluatorCtx returned %v, want invalid_input", bad, err)
		}
		src := FlattenPatches(UniformPatches(4, 100))
		if _, err := NewEvaluatorCtx(context.Background(), src, pts, Options{Kernel: Laplace()}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("target coordinate %g: NewEvaluatorCtx returned %v, want invalid_input", bad, err)
		}
		for i := range patches {
			if len(patches[i].Points) > 0 {
				patches[i].Points[0] = bad
				break
			}
		}
		den := RandomDensities(5, 5000, 1)
		if _, err := EvaluateParallel(patches, den, 2, ParallelOptions{Options: Options{Kernel: Laplace(), Degree: 4}}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("coordinate %g: EvaluateParallel returned %v, want invalid_input", bad, err)
		}
	}
}

func TestPublicAPISequential(t *testing.T) {
	patches := SpherePatches(1, 2000, 3, 0.25)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, 2000, 1)
	ev, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), Degree: 6, MaxPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	pot, err := ev.Evaluate(den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Direct(Laplace(), pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := rel(pot, want); e > 2e-3 {
		t.Errorf("public API error %v", e)
	}
	if ev.Boxes() <= 1 || ev.Depth() < 2 {
		t.Errorf("implausible tree: %d boxes depth %d", ev.Boxes(), ev.Depth())
	}
	if ev.Stats().Total() <= 0 {
		t.Error("stats not recorded")
	}
}

func TestPublicAPIParallel(t *testing.T) {
	patches := CornerPatches(3, 1500, 0.35)
	den := RandomDensities(4, 1500, 3)
	res, err := EvaluateParallel(patches, den, 3, ParallelOptions{
		Options: Options{Kernel: Stokes(1), Degree: 6, MaxPoints: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := FlattenPatches(patches)
	want, err := Direct(Stokes(1), pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := rel(res.Pot, want); e > 2e-3 {
		t.Errorf("parallel public API error %v", e)
	}
}

func TestKernelByNamePublic(t *testing.T) {
	for _, n := range []string{"laplace", "modlaplace", "stokes"} {
		k, err := KernelByName(n)
		if err != nil || k.Name() != n {
			t.Errorf("KernelByName(%q) = %v, %v", n, k, err)
		}
	}
	if _, err := KernelByName("nope"); err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestDistributionsShape(t *testing.T) {
	sp := SpherePatches(1, 1000, 8, 0.1)
	if len(sp) != 512 {
		t.Errorf("8x8x8 grid must give 512 patches, got %d", len(sp))
	}
	cp := CornerPatches(1, 800, 0.3)
	if got := len(FlattenPatches(cp)) / 3; got != 800 {
		t.Errorf("corner patches lost points: %d", got)
	}
	up := UniformPatches(1, 100)
	pts := FlattenPatches(up)
	for _, v := range pts {
		if v < -1 || v > 1 {
			t.Fatalf("uniform point outside cube: %v", v)
		}
	}
	den := RandomDensities(1, 10, 3)
	if len(den) != 30 {
		t.Errorf("densities length %d", len(den))
	}
	for _, v := range den {
		if v < 0 || v > 1 {
			t.Errorf("density %v outside [0,1]", v)
		}
	}
}

func rel(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestEvaluateParallelInvalidInput: every input the parallel driver
// rejects comes back as a typed invalid_input error, checked before any
// simulated rank starts — a rank failing alone would leave its peers
// blocked in a collective.
func TestEvaluateParallelInvalidInput(t *testing.T) {
	patches := SpherePatches(6, 300, 2, 0.3)
	den := RandomDensities(7, 300, 1)
	cases := []struct {
		name  string
		den   []float64
		nproc int
		opt   Options
	}{
		{"negative degree", den, 2, Options{Kernel: Laplace(), Degree: -1}},
		{"degree 2", den, 2, Options{Kernel: Laplace(), Degree: 2}},
		{"nil kernel", den, 2, Options{}},
		{"density length", den[:299], 2, Options{Kernel: Laplace()}},
		{"no ranks", den, 0, Options{Kernel: Laplace()}},
	}
	for _, c := range cases {
		if _, err := EvaluateParallel(patches, c.den, c.nproc, ParallelOptions{Options: c.opt}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: EvaluateParallel returned %v, want invalid_input", c.name, err)
		}
	}
	_, err := parfmm.Evaluate(patches, den, 2, parfmm.Options{Kernel: Laplace(), PatchWeights: []int64{1, 2, 3}})
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("PatchWeights length: parfmm.Evaluate returned %v, want invalid_input", err)
	}
}

// TestEvaluateParallelDefaultsLikeSingleNode: the parallel driver
// defaults its options like the single-node engine, so a non-positive
// leaf size means the default 60 there too instead of splitting every
// box down to the depth cap.
func TestEvaluateParallelDefaultsLikeSingleNode(t *testing.T) {
	patches := SpherePatches(8, 2000, 2, 0.3)
	den := RandomDensities(9, 2000, 1)
	var boxes, depth [2]int
	for i, mp := range []int{0, -1} {
		res, err := EvaluateParallel(patches, den, 2, ParallelOptions{Options: Options{Kernel: Laplace(), Degree: 4, MaxPoints: mp}})
		if err != nil {
			t.Fatal(err)
		}
		boxes[i], depth[i] = res.Boxes, res.Depth
	}
	if boxes[1] != boxes[0] || depth[1] != depth[0] {
		t.Errorf("MaxPoints -1 built %d boxes of depth %d, MaxPoints 0 built %d of depth %d", boxes[1], depth[1], boxes[0], depth[0])
	}
}

// TestEvaluateParallelReleasesOperators: every rank's engine releases
// its claim on the shared operator caches when the run ends, so a live
// plan over the same geometry keeps its footprint attribution instead
// of sharing it with ranks that are gone.
func TestEvaluateParallelReleasesOperators(t *testing.T) {
	patches := SpherePatches(10, 3000, 2, 0.3)
	pts := FlattenPatches(patches)
	den := RandomDensities(11, 3000, 1)
	ev, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if _, err := ev.Evaluate(den); err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := EvaluateParallel(patches, den, 4, ParallelOptions{Options: Options{Kernel: Laplace(), Degree: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	// A first run may build operators the plan has not used yet; after
	// it, further runs must leave the plan's attribution alone.
	run()
	before := ev.FootprintBytes()
	for i := 0; i < 3; i++ {
		run()
	}
	if after := ev.FootprintBytes(); after != before {
		t.Errorf("plan footprint %d B before three parallel runs, %d B after", before, after)
	}
}
