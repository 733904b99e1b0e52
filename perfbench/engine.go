package main

import (
	"context"
	"math/rand"
	"time"

	kifmm "repro"
	"repro/internal/fmm"
	"repro/internal/obs"
	"repro/internal/tree"
)

// treeShape holds the exact work counts of an octree, read from the
// tree package's own lists.
type treeShape struct {
	p2pPairs int64 // target-source point pairs of the U lists
	// p2pSrc and p2pTrg sum the source and target points of every
	// U-list box pair, the points a P2P sweep reads and writes.
	p2pSrc, p2pTrg int64
	vPairs         int64
}

// shapeLayers builds the octree an evaluator with default leaf size
// builds over pts and records its tree.* counts.
func shapeLayers(ctx context.Context, rep *report, pts []float64) (treeShape, error) {
	opt := fmm.ApplyDefaults(fmm.Options{})
	tr, err := tree.BuildCtx(ctx, pts, pts, tree.Config{MaxPoints: opt.MaxPoints, MaxDepth: opt.MaxDepth})
	if err != nil {
		return treeShape{}, err
	}
	var sh treeShape
	var w, x, leafMax int64
	for i := range tr.Boxes {
		b := &tr.Boxes[i]
		sh.vPairs += int64(len(b.V))
		w += int64(len(b.W))
		x += int64(len(b.X))
		if !b.Leaf {
			continue
		}
		leafMax = max(leafMax, int64(b.SrcCount), int64(b.TrgCount))
		for _, u := range b.U {
			sh.p2pPairs += int64(b.TrgCount) * int64(tr.Boxes[u].SrcCount)
			sh.p2pSrc += int64(tr.Boxes[u].SrcCount)
			sh.p2pTrg += int64(b.TrgCount)
		}
	}
	rep.set("tree.boxes", float64(len(tr.Boxes)))
	rep.set("tree.depth", float64(tr.Depth()))
	rep.set("tree.v_pairs", float64(sh.vPairs))
	rep.set("tree.w_pairs", float64(w))
	rep.set("tree.x_pairs", float64(x))
	rep.set("tree.leaf_points_max", float64(leafMax))
	return sh, nil
}

// fftGridLen is the number of stored complex frequencies of one FFT M2L
// grid at surface degree p: an M³ grid, M the smallest 5-smooth integer
// >= 2p-1, of which M*M*(M/2+1) are kept (real-input transform).
func fftGridLen(p int) int64 {
	m := 2*p - 1
	for !smooth5(m) {
		m++
	}
	return int64(m * m * (m/2 + 1))
}

func smooth5(m int) bool {
	for _, f := range []int{2, 3, 5} {
		for m%f == 0 {
			m /= f
		}
	}
	return m == 1
}

// m2lBytes is the computed memory traffic of the V-list Hadamard
// products of one sweep over nrhs density vectors of a scalar kernel:
// per V pair the kernel tensor is read once and, per vector, the source
// spectrum is read and the target spectrum read and written, 16 bytes
// per complex value. Computed from counts, not measured.
func m2lBytes(sh treeShape, p, nrhs int) float64 {
	return float64(sh.vPairs) * float64(1+3*nrhs) * float64(fftGridLen(p)) * 16
}

// p2pBytes is the computed memory traffic of the U-list P2P products
// of one sweep over nrhs density vectors of a scalar kernel: per box
// pair the source coordinates and densities are read and the target
// coordinates read and potentials read and written, 8 bytes per value.
// Computed from counts, not measured.
func p2pBytes(sh treeShape, nrhs int) float64 {
	return float64(sh.p2pSrc)*float64(24+8*nrhs) + float64(sh.p2pTrg)*float64(24+16*nrhs)
}

// sweep aggregates the engine sweeps of one operation: one for a
// library evaluation, every operator application of a solve.
type sweep struct {
	st       fmm.Stats
	passWall map[string]time.Duration // wall of the up/down/leaf passes
	rootWall time.Duration            // wall of the traced sweeps
	passes   time.Duration            // summed pass spans: the engine's blocking path
	m2lBytes float64
	p2pBytes float64
	vectors  int
}

// add folds in one sweep over nrhs vectors; root is its span tree (nil
// when untraced).
func (s *sweep) add(st fmm.Stats, root *obs.Span, sh treeShape, p, nrhs int) {
	s.st.Add(st)
	s.st.Lanes = max(s.st.Lanes, st.Lanes)
	s.m2lBytes += m2lBytes(sh, p, nrhs)
	s.p2pBytes += p2pBytes(sh, nrhs)
	s.vectors += nrhs
	if root == nil {
		return
	}
	if s.passWall == nil {
		s.passWall = map[string]time.Duration{}
	}
	s.rootWall += root.Duration
	for _, c := range root.Children {
		s.passWall[c.Name] += c.Duration
		s.passes += c.Duration
	}
}

// record stores the fmm, translate and kernels samples of the
// operation: stage CPU summed across lanes, pass wall from the spans,
// and rates against the tree's computed work.
func (s *sweep) record(rep *report, sh treeShape) {
	st := s.st
	rep.sample("fmm.up_ms", ms(st.Up))
	rep.sample("fmm.down_u_ms", ms(st.DownU))
	rep.sample("fmm.down_v_ms", ms(st.DownV))
	rep.sample("fmm.down_w_ms", ms(st.DownW))
	rep.sample("fmm.down_x_ms", ms(st.DownX))
	rep.sample("fmm.leaf_ms", ms(st.Eval))
	rep.sample("fmm.flops", float64(st.Flops()))
	rep.sample("fmm.lanes", float64(st.Lanes))
	for _, name := range []string{"up", "down", "leaf"} {
		rep.sample("fmm.wall_"+name+"_ms", ms(s.passWall[name]))
	}
	if s.rootWall > 0 && st.Lanes > 0 {
		rep.sample("fmm.lane_util", st.Total().Seconds()/(s.rootWall.Seconds()*float64(st.Lanes)))
	}
	if st.DownV > 0 {
		rep.sample("translate.m2l_gflops", float64(st.FlopsDownV)/st.DownV.Seconds()/1e9)
	}
	rep.sample("translate.m2l_bytes", s.m2lBytes)
	if s.m2lBytes > 0 {
		rep.sample("translate.m2l_flop_per_byte", float64(st.FlopsDownV)/s.m2lBytes)
	}
	pairs := float64(sh.p2pPairs) * float64(s.vectors)
	rep.sample("kernels.p2p_pairs", pairs)
	rep.sample("kernels.p2p_bytes", s.p2pBytes)
	if s.p2pBytes > 0 {
		rep.sample("kernels.p2p_flop_per_byte", float64(st.FlopsDownU)/s.p2pBytes)
	}
	if st.DownU > 0 {
		rep.sample("kernels.p2p_mpairs_per_s", pairs/st.DownU.Seconds()/1e6)
		rep.sample("kernels.p2p_gflops", float64(st.FlopsDownU)/st.DownU.Seconds()/1e9)
	}
}

// leaseWait is the time an engine sweep queued for lanes: from the
// root span's start to its first pass.
func leaseWait(root *obs.Span) time.Duration {
	if root == nil || len(root.Children) == 0 {
		return 0
	}
	return root.Children[0].Start.Sub(root.Start)
}

// leaseRecorder is a pool acquire observer that records the wait and
// granted width of every admission.
func leaseRecorder(rep *report) func(wait time.Duration, granted int) {
	return func(wait time.Duration, granted int) {
		rep.sample("exec.lease_wait_ms", ms(wait))
		rep.sample("exec.granted_width", float64(granted))
	}
}

// leaseLayers turns the collected admissions into the exec.* metrics.
func leaseLayers(rep *report) {
	w := rep.samples["exec.lease_wait_ms"]
	rep.set("exec.lease_wait_ms_p50", quantile(w, 0.5))
	rep.set("exec.lease_wait_ms_p99", quantile(w, 0.99))
	rep.set("exec.granted_width_mean", mean(rep.samples["exec.granted_width"]))
}

// sampleIndices picks k distinct indices of [0, n) from rng.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	return rng.Perm(n)[:min(k, n)]
}

// gatherPoints returns the points of pts (flat xyz) at idx.
func gatherPoints(pts []float64, idx []int) []float64 {
	out := make([]float64, 0, 3*len(idx))
	for _, i := range idx {
		out = append(out, pts[3*i:3*i+3]...)
	}
	return out
}

// gatherValues returns the entries of v at idx.
func gatherValues(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = v[i]
	}
	return out
}

// densities draws count seeded density vectors of n scalar components.
func densities(seed int64, count, n int) [][]float64 {
	out := make([][]float64, count)
	for q := range out {
		out[q] = kifmm.RandomDensities(seed*7919+int64(q)+1, n, 1)
	}
	return out
}
