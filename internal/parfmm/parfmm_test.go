package parfmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/direct"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

func fastMachine() mpi.Machine {
	return mpi.Machine{Latency: 1e3, Bandwidth: 1e9}
}

func relErr(got, want []float64) float64 {
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

// TestParallelMatchesSequential: for every rank count the parallel
// algorithm must reproduce the sequential FMM to floating-point
// accumulation accuracy (identical operators, identical tree).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patches := geom.SphereGrid(rng, 1200, 2, 0.3)
	pts := geom.Flatten(patches)
	den := geom.RandomDensities(rng, 1200, 1)
	seq, err := fmm.New(pts, pts, fmm.Options{Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Evaluate(den)
	if err != nil {
		t.Fatal(err)
	}
	for _, nproc := range []int{1, 2, 3, 5, 8} {
		res, err := Evaluate(patches, den, nproc, Options{
			Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 30, Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Pot, want); e > 1e-11 {
			t.Errorf("nproc=%d: parallel differs from sequential by %v", nproc, e)
		}
	}
}

// TestOneRankIsTheSingleNodeEngine: ranks run fmm's passes, so one
// rank, whose ghost data is its own tree's in Morton order, reproduces
// the single-node evaluator bit for bit, on a geometry with X and W
// lists and for both M2L backends.
func TestOneRankIsTheSingleNodeEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patches := geom.SphereGrid(rng, 1200, 2, 0.3)
	pts := geom.Flatten(patches)
	k := kernels.Laplace{}
	den := geom.RandomDensities(rng, 1200, k.SourceDim())
	for _, backend := range []fmm.M2LBackend{fmm.M2LFFT, fmm.M2LDense} {
		seq, err := fmm.New(pts, pts, fmm.Options{Kernel: k, Degree: 6, MaxPoints: 30, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.Evaluate(den)
		seq.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(patches, den, 1, Options{
			Kernel: k, Degree: 6, MaxPoints: 30, Backend: backend, Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Pot[i] != want[i] {
				t.Fatalf("backend %d: potential %d is %v on one rank, %v on a single node", backend, i, res.Pot[i], want[i])
			}
		}
	}
}

// TestParallelAccuracyAllKernels verifies the full parallel pipeline
// against direct summation for the paper's three kernels.
func TestParallelAccuracyAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2))
	patches := geom.CornerClusters(rng, 900, 0.35, 2)
	pts := geom.Flatten(patches)
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewStokes(1)} {
		den := geom.RandomDensities(rng, 900, k.SourceDim())
		res, err := Evaluate(patches, den, 4, Options{
			Kernel: k, Degree: 6, MaxPoints: 25, Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Evaluate(k, pts, pts, den)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Pot, want); e > 2e-3 {
			t.Errorf("%s: parallel FMM error %v vs direct", k.Name(), e)
		}
	}
}

// TestParallelBackendsAgree: dense and FFT M2L must agree in parallel
// just as they do sequentially.
func TestParallelBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	patches := geom.UniformCube(rng, 800)
	den := geom.RandomDensities(rng, 800, 1)
	var results [][]float64
	for _, backend := range []fmm.M2LBackend{fmm.M2LFFT, fmm.M2LDense} {
		res, err := Evaluate(patches, den, 3, Options{
			Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 20,
			Backend: backend, Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res.Pot)
	}
	if e := relErr(results[0], results[1]); e > 1e-10 {
		t.Errorf("parallel backends disagree: %v", e)
	}
}

// TestStatsAndMetrics sanity-checks the per-rank accounting the
// scalability tables are built from.
func TestStatsAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	patches := geom.SphereGrid(rng, 2000, 2, 0.3)
	den := geom.RandomDensities(rng, 2000, 1)
	res, err := Evaluate(patches, den, 4, Options{
		Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 30,
		Machine: mpi.DefaultMachine(), Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("want 4 rank stats, got %d", len(res.Ranks))
	}
	for r, s := range res.Ranks {
		if s.Total <= 0 {
			t.Errorf("rank %d: no interaction time", r)
		}
		if s.TreeTime <= 0 {
			t.Errorf("rank %d: no tree time", r)
		}
		if s.Stats.FlopsUp <= 0 || s.Stats.FlopsDownU <= 0 {
			t.Errorf("rank %d: flop counters empty", r)
		}
		if s.Comm < 0 || s.Comm > s.Total {
			t.Errorf("rank %d: comm time %v outside total %v", r, s.Comm, s.Total)
		}
	}
	// Multi-rank runs must communicate.
	anyBytes := false
	for _, s := range res.Ranks {
		if s.BytesSent > 0 {
			anyBytes = true
		}
	}
	if !anyBytes {
		t.Error("no communication recorded on 4 ranks")
	}
	if res.Ratio() < 1 {
		t.Errorf("load imbalance ratio %v < 1", res.Ratio())
	}
	if res.MaxTotal() <= 0 {
		t.Error("MaxTotal must be positive")
	}
	if res.Boxes <= 1 || res.Depth < 2 {
		t.Errorf("implausible tree: %d boxes depth %d", res.Boxes, res.Depth)
	}
}

// TestSingleRankHasNoComm: with one rank the algorithm degenerates to
// the sequential method with zero point-to-point traffic.
func TestSingleRankHasNoComm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	patches := geom.UniformCube(rng, 500)
	den := geom.RandomDensities(rng, 500, 1)
	res, err := Evaluate(patches, den, 1, Options{
		Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 25, Machine: fastMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].BytesSent != 0 {
		t.Errorf("single rank sent %d bytes", res.Ranks[0].BytesSent)
	}
}

// TestOwnershipInvariants: rebuild the deterministic owner assignment on
// a driver-side replica and check the paper's rules.
func TestOwnershipInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	patches := geom.CornerClusters(rng, 1000, 0.35, 2)
	den := geom.RandomDensities(rng, 1000, 1)
	// Run with several rank counts; correctness of results plus the
	// single-owner communication pattern (no crash, no deadlock, right
	// answers) exercises the assignment.
	pts := geom.Flatten(patches)
	want, err := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	for _, nproc := range []int{2, 7} {
		res, err := Evaluate(patches, den, nproc, Options{
			Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 15, Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Pot, want); e > 2e-3 {
			t.Errorf("nproc=%d: error %v", nproc, e)
		}
	}
}

// TestValidationErrors covers the driver's input checks.
func TestValidationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patches := geom.UniformCube(rng, 10)
	if _, err := Evaluate(patches, make([]float64, 10), 2, Options{}); err == nil {
		t.Error("missing kernel must error")
	}
	if _, err := Evaluate(patches, make([]float64, 3), 2, Options{Kernel: kernels.Laplace{}}); err == nil {
		t.Error("wrong density length must error")
	}
	if _, err := Evaluate(patches, make([]float64, 10), 0, Options{Kernel: kernels.Laplace{}}); err == nil {
		t.Error("zero ranks must error")
	}
}

// TestMoreRanksThanPatches: ranks without any patch must still
// participate correctly in the collectives and produce nothing.
func TestMoreRanksThanPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	patches := geom.UniformCube(rng, 300) // a single patch
	den := geom.RandomDensities(rng, 300, 1)
	res, err := Evaluate(patches, den, 3, Options{
		Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 30, Machine: fastMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.Flatten(patches)
	want, _ := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if e := relErr(res.Pot, want); e > 2e-2 {
		t.Errorf("error %v with idle ranks", e)
	}
}

// TestWorkEstimateFeedback implements the paper's proposed load-balance
// improvement: re-partitioning with the previous evaluation's per-patch
// work estimates must not hurt — and for non-uniform distributions it
// should reduce — the max/min imbalance ratio, while leaving the results
// identical.
func TestWorkEstimateFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	patches := geom.CornerClusters(rng, 2400, 0.3, 8)
	den := geom.RandomDensities(rng, 2400, 1)
	opt := Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 20, Machine: fastMachine()}
	first, err := Evaluate(patches, den, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.PatchWork) != len(patches) {
		t.Fatalf("PatchWork length %d, want %d", len(first.PatchWork), len(patches))
	}
	totalWork := int64(0)
	for _, w := range first.PatchWork {
		if w < 0 {
			t.Fatal("negative work estimate")
		}
		totalWork += w
	}
	if totalWork == 0 {
		t.Fatal("work estimates all zero")
	}
	opt.PatchWeights = first.PatchWork
	second, err := Evaluate(patches, den, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(second.Pot, first.Pot); e > 1e-11 {
		t.Errorf("re-partitioned run changed the results by %v", e)
	}
	t.Logf("imbalance ratio: count-weighted %.3f -> work-weighted %.3f", first.Ratio(), second.Ratio())
	if second.Ratio() > first.Ratio()*1.5 {
		t.Errorf("work-weighted partitioning degraded balance: %.3f -> %.3f", first.Ratio(), second.Ratio())
	}
}

// TestPatchWeightsValidation rejects mismatched weight vectors.
func TestPatchWeightsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	patches := geom.UniformCube(rng, 50)
	den := geom.RandomDensities(rng, 50, 1)
	_, err := Evaluate(patches, den, 2, Options{
		Kernel: kernels.Laplace{}, Machine: fastMachine(),
		PatchWeights: []int64{1, 2, 3},
	})
	if err == nil {
		t.Error("wrong PatchWeights length must error")
	}
}
