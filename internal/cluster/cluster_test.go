package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	kifmm "repro"
	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/parfmm"
)

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

// checkGoroutines fails the test if the goroutine count has not settled
// back to the baseline (a small grace covers runtime bookkeeping).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestCodecRoundTrips exercises the binary frame codec end to end: what
// the encoders produce, the decoders must reproduce exactly.
func TestCodecRoundTrips(t *testing.T) {
	hdr := &jobHeader{
		Job: 7, Size: 4, RankLo: 2, RankHi: 4,
		Peers:  []rankRange{{Addr: "a:1", Lo: 0, Hi: 2}, {Addr: "b:2", Lo: 2, Hi: 4}},
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 6, MaxPoints: 60, PinvTol: 1e-10, Trace: true,
	}
	inputs := []*parfmm.RankInput{
		{Pts: []float64{1, 2, 3}, Den: []float64{0.5}, GlobalIdx: []int32{9}},
		{Pts: nil, Den: nil, GlobalIdx: nil},
	}
	payload, err := encodeJobStart(hdr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	gotHdr, gotIn, err := decodeJobStart(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Job != 7 || gotHdr.Size != 4 || gotHdr.RankLo != 2 || gotHdr.addrOfRank(1) != "a:1" || gotHdr.addrOfRank(3) != "b:2" {
		t.Fatalf("job header mangled: %+v", gotHdr)
	}
	if len(gotIn) != 2 || gotIn[0].Pts[2] != 3 || gotIn[0].GlobalIdx[0] != 9 || len(gotIn[1].Pts) != 0 {
		t.Fatalf("rank inputs mangled: %+v", gotIn)
	}

	p2p := &p2pMsg{Job: 7, Src: 1, Dst: 3, Tag: 42, SentNS: 12345, Data: []float64{1.5, -2.5}}
	got, err := decodeP2P(encodeP2P(p2p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != 1 || got.Dst != 3 || got.Tag != 42 || got.SentNS != 12345 || got.Data[1] != -2.5 {
		t.Fatalf("p2p mangled: %+v", got)
	}

	coll := &collMsg{Job: 7, Rank: 2, Kind: collFloat64, Op: 1, Seq: 5, EntryNS: 99, F64: []float64{3.25}}
	gotColl, err := decodeColl(encodeColl(coll))
	if err != nil {
		t.Fatal(err)
	}
	if gotColl.Rank != 2 || gotColl.Kind != collFloat64 || gotColl.Seq != 5 || gotColl.F64[0] != 3.25 {
		t.Fatalf("coll mangled: %+v", gotColl)
	}

	job, code, msg, err := decodeJobStatus(encodeJobStatus(7, "worker_lost", "gone"))
	if err != nil || job != 7 || code != "worker_lost" || msg != "gone" {
		t.Fatalf("job status mangled: %d %q %q %v", job, code, msg, err)
	}

	// Truncated payloads must error, not panic or mis-parse.
	if _, err := decodeP2P(encodeP2P(p2p)[:9]); err == nil {
		t.Fatal("truncated p2p payload decoded without error")
	}
}

// startCluster brings up a coordinator and workers on loopback, each
// with its own listener, and tears everything down at test end.
func startCluster(t *testing.T, hb time.Duration, lanes ...int) (*Coordinator, []*Worker) {
	t.Helper()
	coord, err := StartCoordinator(context.Background(), "127.0.0.1:0", CoordinatorConfig{Heartbeat: hb})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, len(lanes))
	for i, l := range lanes {
		w, err := StartWorker(context.Background(), WorkerConfig{Coordinator: coord.Addr(), Lanes: l})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	// Evaluate plans over registered workers; joins are synchronous in
	// StartWorker, so all are visible already.
	if got := coord.Workers(); got != len(lanes) {
		t.Fatalf("coordinator sees %d workers, want %d", got, len(lanes))
	}
	return coord, workers
}

// TestClusterMatchesSingleNode is the tentpole conformance check: a
// real-TCP loopback cluster (coordinator + 2 workers, 2 ranks each)
// must reproduce the single-node evaluator on a cluster-sized Laplace
// problem to accumulation accuracy, and the real-transport ledger must
// support the same timeline analyses as the simulated one.
func TestClusterMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster conformance is not a -short test")
	}
	base := runtime.NumGoroutine()
	const n = 20000
	rng := rand.New(rand.NewSource(3))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	coord, workers := startCluster(t, 500*time.Millisecond, 2, 2)

	// Degree 4 keeps the equivalent-surface pseudo-inverse well enough
	// conditioned that the cluster and the single-node engine agree to
	// accumulation accuracy; at degree 6 the ~1e10 condition number
	// amplifies operator-application ordering into the ~1e-11 range.
	pot, report, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: den,
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ranks != 4 || report.Workers != 2 {
		t.Fatalf("report: %d ranks on %d workers, want 4 on 2", report.Ranks, report.Workers)
	}

	ev, err := kifmm.NewEvaluator(pts, pts, kifmm.Options{Kernel: kifmm.Laplace(), Degree: 4, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	want, err := ev.EvaluateCtx(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(pot, want); e > 1e-12 {
		t.Errorf("cluster differs from single node by %v (want <= 1e-12)", e)
	}

	// The real-transport ledger feeds the same observability surfaces.
	tl := report.Timeline
	if tl == nil || len(tl.Ranks) != 4 {
		t.Fatalf("timeline: %+v, want 4 ranks", tl)
	}
	if tl.TotalMessages() == 0 || tl.TotalBytes() == 0 {
		t.Error("real-transport ledger recorded no messages")
	}
	if path := tl.CriticalPath(); len(path) == 0 {
		t.Error("critical path extraction produced no segments")
	}
	var trace bytes.Buffer
	if err := tl.WriteChromeTrace(&trace); err != nil || trace.Len() == 0 {
		t.Errorf("chrome trace: %v (%d bytes)", err, trace.Len())
	}
	if coord.ScatterBytes() == 0 || coord.GatherBytes() == 0 || coord.Evals() != 1 {
		t.Errorf("coordinator counters: scatter=%d gather=%d evals=%d",
			coord.ScatterBytes(), coord.GatherBytes(), coord.Evals())
	}

	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterGatherBytesPerJob: each EvalReport carries its own job's
// result bytes, not the coordinator's running total, and the reports
// of two jobs add up to that total.
func TestClusterGatherBytesPerJob(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, workers := startCluster(t, 500*time.Millisecond, 1, 1)
	rng := rand.New(rand.NewSource(5))
	var reports []*EvalReport
	for _, n := range []int{3000, 1500} {
		pts := geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3))
		den := geom.RandomDensities(rng, n, 1)
		_, report, err := coord.Evaluate(context.Background(), EvalRequest{
			Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"}, Degree: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, report)
	}
	first, second := reports[0].GatherBytes, reports[1].GatherBytes
	if first <= 0 || second <= 0 {
		t.Fatalf("per-job gather bytes %d and %d, want both positive", first, second)
	}
	if total := coord.GatherBytes(); first+second != total {
		t.Errorf("per-job gather bytes %d + %d != coordinator total %d", first, second, total)
	}
	if second >= first {
		t.Errorf("the smaller second job gathered %d bytes, not fewer than the first's %d", second, first)
	}
	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterRejectsNonFiniteCoordinates: a NaN coordinate is rejected
// as invalid input before any work is scattered.
func TestClusterRejectsNonFiniteCoordinates(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, workers := startCluster(t, 500*time.Millisecond, 1)
	rng := rand.New(rand.NewSource(6))
	pts := geom.Flatten(geom.SphereGrid(rng, 2000, 2, 0.3))
	pts[3*1234+1] = math.NaN()
	_, _, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: geom.RandomDensities(rng, 2000, 1), Kernel: kernels.Spec{Name: "laplace"},
	})
	if !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("NaN coordinate: got %v, want invalid_input", err)
	}
	if coord.ScatterBytes() != 0 {
		t.Errorf("rejected job scattered %d bytes", coord.ScatterBytes())
	}
	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterWorkerLost kills one worker mid-evaluation: the blocked
// Evaluate must resolve with the typed worker_lost error within two
// heartbeat intervals (no hang), nothing may leak, and the degraded
// coordinator must keep rejecting cluster requests crisply.
func TestClusterWorkerLost(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failure injection is not a -short test")
	}
	base := runtime.NumGoroutine()
	const hb = 250 * time.Millisecond
	const n = 16000
	rng := rand.New(rand.NewSource(4))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	coord, workers := startCluster(t, hb, 2, 2)

	errCh := make(chan error, 1)
	go func() {
		_, _, err := coord.Evaluate(context.Background(), EvalRequest{
			Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"},
		})
		errCh <- err
	}()

	// Let the scatter land and the ranks get to work, then kill one
	// worker hard (no drain — its connections just die).
	time.Sleep(100 * time.Millisecond)
	killAt := time.Now()
	workers[1].Kill()

	select {
	case err := <-errCh:
		if !errors.Is(err, errs.ErrWorkerLost) {
			t.Fatalf("evaluation after kill returned %v, want worker_lost", err)
		}
		if lat := time.Since(killAt); lat > 2*hb {
			t.Errorf("worker loss surfaced after %v, want <= 2 heartbeat intervals (%v)", lat, 2*hb)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation hung after worker kill")
	}
	if coord.WorkersLost() != 1 {
		t.Errorf("WorkersLost = %d, want 1", coord.WorkersLost())
	}

	// Degraded mode: with the survivors gone too, cluster-sized requests
	// fail fast with the same typed error instead of hanging.
	workers[0].Close()
	_, _, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts[:30], Den: den[:10], Kernel: kernels.Spec{Name: "laplace"},
	})
	if !errors.Is(err, errs.ErrWorkerLost) {
		t.Errorf("no-worker evaluation returned %v, want worker_lost", err)
	}

	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterDrainExcludesWorker: after a graceful drain the departed
// worker no longer receives work, is not counted as lost, and the rest
// of the cluster keeps serving.
func TestClusterDrainExcludesWorker(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1)
	defer coord.Close()

	n := 600
	rng := rand.New(rand.NewSource(5))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 1, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	workers[1].Close()
	for deadline := time.Now().Add(5 * time.Second); coord.Workers() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still sees %d workers after drain", coord.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if coord.WorkersLost() != 0 {
		t.Errorf("graceful drain counted as loss: WorkersLost = %d", coord.WorkersLost())
	}
	pot, report, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Workers != 1 || report.Ranks != 1 {
		t.Errorf("drained worker still scheduled: %d workers, %d ranks", report.Workers, report.Ranks)
	}
	if len(pot) != n {
		t.Errorf("potential length %d, want %d", len(pot), n)
	}
	workers[0].Close()
}

// TestClusterRankFailureReported: a job that fails inside a rank (here
// every rank rejects the degree) comes back from Evaluate as the rank's
// typed error, promptly and without leaking goroutines. The worker must
// report a failure that started locally: the coordinator would
// otherwise wait for its ranks forever, kept from declaring the worker
// lost by its heartbeats.
func TestClusterRankFailureReported(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, workers := startCluster(t, 500*time.Millisecond, 1)
	rng := rand.New(rand.NewSource(7))
	pts := geom.Flatten(geom.SphereGrid(rng, 2000, 2, 0.3))
	den := geom.RandomDensities(rng, 2000, 1)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := coord.Evaluate(context.Background(), EvalRequest{
			Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"}, Degree: 2,
		})
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, errs.ErrInvalidInput) {
			t.Fatalf("rank failure: Evaluate returned %v, want invalid_input", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation hung after its rank failed")
	}
	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}
