package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one printed metric and its unit. The lists below are
// the single source of the names BENCHMARK.json declares; selftest.py
// checks that the two agree.
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs. Every workload prints every
// one of them, each mapped onto that workload's own operation: a warm
// evaluation (laplace-uniform), a four-RHS GMRES solve
// (screened-solve), one HTTP request (serve-mixed) or one cluster job
// (cluster-loopback).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"rel_err", "ratio"},
	{"heap_peak_mb", "MB"},
}

// perLayer are printed by traced runs; a layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"fmm.up_ms", "ms"}, {"fmm.down_u_ms", "ms"}, {"fmm.down_v_ms", "ms"},
	{"fmm.down_w_ms", "ms"}, {"fmm.down_x_ms", "ms"}, {"fmm.leaf_ms", "ms"},
	{"fmm.flops", "count"},
	{"fmm.wall_up_ms", "ms"}, {"fmm.wall_down_ms", "ms"}, {"fmm.wall_leaf_ms", "ms"},
	{"fmm.lanes", "count"}, {"fmm.lane_util", "ratio"},
	{"translate.m2l_gflops", "GFLOP/s"}, {"translate.m2l_bytes", "B"},
	{"translate.m2l_flop_per_byte", "flop/B"},
	{"kernels.p2p_pairs", "count"}, {"kernels.p2p_mpairs_per_s", "Mpair/s"},
	{"kernels.p2p_gflops", "GFLOP/s"}, {"kernels.p2p_bytes", "B"},
	{"kernels.p2p_flop_per_byte", "flop/B"},
	{"tree.boxes", "count"}, {"tree.depth", "count"}, {"tree.v_pairs", "count"},
	{"tree.w_pairs", "count"}, {"tree.x_pairs", "count"}, {"tree.leaf_points_max", "count"},
	{"plan.build_ms", "ms"}, {"plan.first_op_extra_ms", "ms"}, {"plan.footprint_mb", "MB"},
	{"exec.lease_wait_ms_p50", "ms"}, {"exec.lease_wait_ms_p99", "ms"},
	{"exec.granted_width_mean", "count"},
	{"krylov.matvec_s", "s"}, {"krylov.overhead_ms", "ms"}, {"krylov.matvecs", "count"},
	{"service.handler_ms_p50", "ms"}, {"service.handler_ms_p99", "ms"},
	{"service.engine_ms_p50", "ms"}, {"service.overhead_ms_p50", "ms"},
	{"service.cache_hit_ratio", "ratio"}, {"service.plan_build_ms_p50", "ms"},
	{"service.evictions", "count"},
	{"client.transport_ms_p50", "ms"}, {"client.req_ms_p50.frame", "ms"},
	{"client.req_ms_p50.json", "ms"},
	{"wire.req_bytes.frame", "B"}, {"wire.req_bytes.json", "B"},
	{"wire.resp_bytes.frame", "B"}, {"wire.resp_bytes.json", "B"},
	{"cluster.scatter_bytes", "B"}, {"cluster.gather_bytes", "B"},
	{"cluster.overhead_ms", "ms"}, {"mpi.mesh_bytes", "B"}, {"mpi.msgs", "count"},
	{"parfmm.busy_ms_max", "ms"}, {"parfmm.wait_ms_max", "ms"},
	{"parfmm.imbalance", "ratio"}, {"parfmm.critical_path_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"}, {"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_p99", "ms"},
	{"obs.trace_overhead_pct", "%"}, {"obs.path_sum_ratio", "ratio"},
	{"host.stream_gbs", "GB/s"},
}

// pathTolerance bounds how far the layer times along an operation's
// blocking path may fall short of (or exceed) its wall time, as a share
// of the wall time, for the median operation of a traced run.
const pathTolerance = 0.05

// report accumulates one run: the operation latencies behind the
// end-to-end metrics, every per-operation layer sample, and the outcome
// of every output check.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	// errNum and errDen pool the squared error and squared reference
	// norm of every answer checked over all its targets: rel_err is
	// sqrt(errNum / errDen).
	errNum, errDen float64

	// setup is this process's own set-up time.
	setup time.Duration
	// ops are untraced operation latencies in ms; traced are the
	// latencies of the traced operations of a -trace 1 run; others are
	// those of operations without a traced variant, left out of the
	// tracing-overhead comparison.
	ops, traced, others []float64
	// elapsed is the measured window; completed counts the operations
	// it finished (traced ones included).
	elapsed   time.Duration
	completed int
	// tail is the percentile op_ms_tail reports.
	tail float64

	// samples holds per-operation layer samples (reported as medians),
	// values single per-run layer values (counts and ratios).
	samples map[string][]float64
	values  map[string]float64

	rt0  runtimeSnap
	heap heapWatch
}

func newReport() *report {
	return &report{samples: map[string][]float64{}, values: map[string]float64{}, tail: 0.9}
}

// attempt counts one checked operation; a failed check is recorded with
// its description.
func (r *report) attempt(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// accuracy pools the error of an answer checked against a reference at
// every target into rel_err.
func (r *report) accuracy(got, ref []float64) {
	num, den := sqErr(got, ref)
	r.mu.Lock()
	r.errNum += num
	r.errDen += den
	r.mu.Unlock()
}

func (r *report) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// op records one operation's latency; traced marks the traced half of
// a traced run's alternating operations.
func (r *report) op(ms float64, traced bool) {
	r.mu.Lock()
	if traced {
		r.traced = append(r.traced, ms)
	} else {
		r.ops = append(r.ops, ms)
	}
	r.completed++
	r.mu.Unlock()
}

// other records an operation that has no traced variant.
func (r *report) other(ms float64) {
	r.mu.Lock()
	r.others = append(r.others, ms)
	r.completed++
	r.mu.Unlock()
}

// summary is what one process reports of a run: every operation
// sample and check outcome, so that parts can be pooled and every
// sample kept.
type summary struct {
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Setup      []float64            `json:"setup_s"`
	OpMS       []float64            `json:"op_ms"`
	TracedMS   []float64            `json:"traced_op_ms,omitempty"`
	Tail       float64              `json:"tail_quantile"`
	Completed  int                  `json:"completed"`
	ElapsedS   float64              `json:"window_s"`
	ErrNum     float64              `json:"err_num"`
	ErrDen     float64              `json:"err_den"`
	HeapPeakMB []float64            `json:"heap_peak_mb"`
	Samples    map[string][]float64 `json:"layer_samples,omitempty"`
	Layers     map[string]float64   `json:"layers,omitempty"`
}

func (r *report) summary() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return summary{
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Setup: []float64{r.setup.Seconds()}, OpMS: append(append([]float64(nil), r.ops...), r.others...),
		TracedMS: r.traced, Tail: r.tail,
		Completed: r.completed, ElapsedS: r.elapsed.Seconds(),
		ErrNum: r.errNum, ErrDen: r.errDen, HeapPeakMB: []float64{r.heap.peakMB()},
		Samples: r.samples,
	}
}

// add pools part p into s.
func (s *summary) add(p summary) {
	s.Attempted += p.Attempted
	s.Failed += p.Failed
	s.Failures = append(s.Failures, p.Failures...)
	s.Setup = append(s.Setup, p.Setup...)
	s.OpMS = append(s.OpMS, p.OpMS...)
	s.Tail = p.Tail
	s.Completed += p.Completed
	s.ElapsedS += p.ElapsedS
	s.ErrNum += p.ErrNum
	s.ErrDen += p.ErrDen
	s.HeapPeakMB = append(s.HeapPeakMB, p.HeapPeakMB...)
	for k, v := range p.Samples {
		if s.Samples == nil {
			s.Samples = map[string][]float64{}
		}
		s.Samples[k] = append(s.Samples[k], v...)
	}
}

// beginWindow starts the timed window: runtime counters are taken and
// the live-heap watcher armed.
func (r *report) beginWindow() time.Time {
	runtime.GC()
	r.rt0 = readRuntime()
	r.heap.start()
	return time.Now()
}

// endWindow closes the window opened at start and derives the Go
// runtime layer metrics over it.
func (r *report) endWindow(start time.Time) {
	r.elapsed = time.Since(start)
	r.heap.stop()
	d := readRuntime().minus(r.rt0)
	ops := float64(max(r.completed, 1))
	r.set("go.alloc_mb_per_op", d.allocBytes/ops/(1<<20))
	r.set("go.gc_cycles_per_op", d.gcCycles/ops)
	r.set("go.gc_pause_ms_p99", d.pauseP99*1e3)
}

// more reports whether another operation fits in the window: the
// operation is started only if, at the median duration so far, it ends
// before the window does, so a run with long operations does not
// overrun by a whole operation.
func more(start time.Time, window time.Duration, done []float64) bool {
	el := time.Since(start)
	if len(done) == 0 {
		return el < window
	}
	return el+time.Duration(median(done)*float64(time.Millisecond)) <= window
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (0 for none).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// relL2 is ||got - ref|| / ||ref||.
func relL2(got, ref []float64) float64 {
	num, den := sqErr(got, ref)
	return math.Sqrt(num / den)
}

// sqErr returns ||got - ref||² and ||ref||² (an infinite error for
// mismatched lengths).
func sqErr(got, ref []float64) (num, den float64) {
	if len(got) != len(ref) {
		return math.Inf(1), 1
	}
	for i := range ref {
		d := got[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	return num, den
}

// bitsEqual reports whether two vectors are identical bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runtimeSnap is a reading of the Go runtime counters the go.* layer
// metrics are differences of.
type runtimeSnap struct {
	allocBytes, gcCycles float64
	pauses               *metrics.Float64Histogram
	pauseP99             float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		pauses:     s[2].Value.Float64Histogram(),
	}
}

// minus returns the counters accumulated since o, with the 99th
// percentile of the GC pauses that happened in between.
func (s runtimeSnap) minus(o runtimeSnap) runtimeSnap {
	d := runtimeSnap{allocBytes: s.allocBytes - o.allocBytes, gcCycles: s.gcCycles - o.gcCycles}
	counts := make([]uint64, len(s.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - o.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			// Upper bucket edge, finite: the histogram's last edge is +Inf.
			hi := s.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = s.pauses.Buckets[i]
			}
			d.pauseP99 = hi
			break
		}
	}
	return d
}

// heapWatch records the peak live heap: after every GC cycle a
// finalizer on a fresh sentinel reads the live heap that cycle marked,
// so no cycle is missed the way polling would miss one.
type heapWatch struct {
	on   atomic.Bool
	peak atomic.Uint64
}

func (h *heapWatch) start() {
	h.peak.Store(liveHeap())
	h.on.Store(true)
	h.arm()
}

func (h *heapWatch) arm() {
	s := new([16]byte)
	runtime.SetFinalizer(s, func(*[16]byte) {
		if !h.on.Load() {
			return
		}
		if v := liveHeap(); v > h.peak.Load() {
			h.peak.Store(v)
		}
		h.arm()
	})
}

func (h *heapWatch) stop() {
	if v := liveHeap(); v > h.peak.Load() {
		h.peak.Store(v)
	}
	h.on.Store(false)
}

func (h *heapWatch) peakMB() float64 { return float64(h.peak.Load()) / (1 << 20) }

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
