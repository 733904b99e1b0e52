package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/parfmm"
)

// WorkerConfig configures a cluster worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's control address (required).
	Coordinator string
	// Listen is the worker's mesh listener address for rank-to-rank
	// traffic (default "127.0.0.1:0" — loopback with an ephemeral port;
	// set an externally reachable address for a real multi-host run).
	Listen string
	// Name labels the worker in coordinator logs and metrics.
	Name string
	// Lanes is the advertised capacity: how many ranks this worker
	// accepts per job. Default: the pool's capacity, else GOMAXPROCS.
	Lanes int
	// Pool is the worker's local scheduler — the elastic lane pool job
	// rank execution is admitted through. Default: a private pool of
	// Lanes lanes.
	Pool *exec.Elastic
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Worker is a cluster worker node: it dials the coordinator, joins with
// a hello/capabilities handshake, heartbeats, accepts mesh connections
// from peer workers, and runs its contiguous rank range of each job via
// parfmm.EvaluateRank over the wire transport.
type Worker struct {
	cfg  WorkerConfig
	id   int64
	ctrl *framedConn
	ln   net.Listener
	pool *exec.Elastic
	log  *slog.Logger
	hb   time.Duration

	mu      sync.Mutex
	jobs    map[uint64]*workerJob
	done    []uint64 // ring of recently finished job ids (stale frames drop)
	peers   map[string]*framedConn
	inbound []*framedConn // accepted mesh connections
	closed  bool

	jobWG sync.WaitGroup // in-flight job runners
	wg    sync.WaitGroup // loops and mesh readers

	// runCtx bounds the worker's job admissions; it is derived from the
	// StartWorker ctx and cancelled at teardown, so queued pool waits
	// unblock when either the caller or the worker itself shuts down.
	runCtx    context.Context
	cancelRun context.CancelFunc
}

// StartWorker connects to a coordinator and joins the cluster. ctx
// bounds the worker's lifetime: cancelling it kills the worker (the
// immediate, non-draining shutdown). The returned worker otherwise
// serves jobs until Close (graceful drain) or Kill.
func StartWorker(ctx context.Context, cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errs.New(errs.CodeInvalidInput, "cluster: WorkerConfig.Coordinator is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Lanes <= 0 {
		if cfg.Pool != nil {
			cfg.Lanes = cfg.Pool.Cap()
		} else {
			cfg.Lanes = runtime.GOMAXPROCS(0)
		}
	}
	w := &Worker{
		cfg:   cfg,
		pool:  cfg.Pool,
		log:   cfg.Logger,
		jobs:  make(map[uint64]*workerJob),
		peers: make(map[string]*framedConn),
	}
	if w.pool == nil {
		w.pool = exec.NewElastic(cfg.Lanes)
	}
	if w.log == nil {
		w.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, errs.Newf(errs.CodeInternal, "cluster: worker listen: %w", err)
	}
	w.ln = ln

	conn, err := net.Dial("tcp", cfg.Coordinator)
	if err != nil {
		ln.Close()
		return nil, errs.Newf(errs.CodeInternal, "cluster: dial coordinator %s: %w", cfg.Coordinator, err)
	}
	w.ctrl = newFramedConn(conn)

	hello, err := json.Marshal(helloMsg{Name: cfg.Name, PeerAddr: ln.Addr().String(), Lanes: cfg.Lanes})
	if err == nil {
		err = w.ctrl.writeFrame(fHello, hello)
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	}
	var ack helloAck
	if err == nil {
		var ft frameType
		var payload []byte
		ft, payload, err = w.ctrl.readFrame()
		if err == nil && ft != fHelloAck {
			err = fmt.Errorf("cluster: expected hello ack, got frame type %d", ft)
		}
		if err == nil {
			err = json.Unmarshal(payload, &ack)
		}
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, errs.Typed(fmt.Errorf("cluster: handshake with %s: %w", cfg.Coordinator, err), errs.CodeInternal)
	}
	w.id = ack.WorkerID
	w.hb = time.Duration(ack.HeartbeatNS)
	if w.hb <= 0 {
		w.hb = 2 * time.Second
	}
	w.log.Info("cluster worker joined", "worker_id", w.id, "coordinator", cfg.Coordinator, "mesh_addr", ln.Addr().String(), "lanes", cfg.Lanes)

	w.runCtx, w.cancelRun = context.WithCancel(ctx)
	context.AfterFunc(ctx, w.Kill)
	w.wg.Add(3)
	go w.ctrlLoop()
	go w.heartbeatLoop()
	go w.acceptLoop()
	return w, nil
}

// ID is the coordinator-assigned worker id.
func (w *Worker) ID() int64 { return w.id }

// Addr is the worker's mesh listener address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Pool exposes the worker's local scheduler.
func (w *Worker) Pool() *exec.Elastic { return w.pool }

// ctrlLoop reads coordinator frames: job dispatch, aborts, collective
// responses. A read error means the coordinator is gone — every
// in-flight job aborts.
func (w *Worker) ctrlLoop() {
	defer w.wg.Done()
	for {
		ft, payload, err := w.ctrl.readFrame()
		if err != nil {
			w.abortAll(errs.Newf(errs.CodeWorkerLost, "kifmm: coordinator connection lost: %v", err))
			return
		}
		switch ft {
		case fJobStart:
			hdr, inputs, err := decodeJobStart(payload)
			if err != nil {
				w.log.Warn("cluster worker: bad job start", "err", err)
				continue
			}
			w.startJob(hdr, inputs)
		case fJobAbort:
			job, code, msg, err := decodeJobStatus(payload)
			if err != nil {
				continue
			}
			if j := w.lookupJob(job); j != nil {
				j.abort(errs.New(errs.Code(code), msg))
			}
		case fCollResp:
			m, err := decodeCollResp(payload)
			if err != nil {
				continue
			}
			if j := w.lookupJob(m.Job); j != nil {
				j.deliverCollResp(m)
			}
		}
	}
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.hb)
	defer t.Stop()
	for range t.C {
		if w.isClosed() {
			return
		}
		if err := w.ctrl.writeFrame(fHeartbeat, nil); err != nil {
			return
		}
	}
}

// acceptLoop admits mesh connections from peer workers; each gets a
// reader goroutine delivering fP2P frames into job mailboxes.
func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		fc := newFramedConn(c)
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			fc.Close()
			return
		}
		w.inbound = append(w.inbound, fc)
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer fc.Close()
			for {
				ft, payload, err := fc.readFrame()
				if err != nil {
					return
				}
				if ft != fP2P {
					continue
				}
				m, err := decodeP2P(payload)
				if err != nil {
					continue
				}
				if j := w.jobFor(m.Job); j != nil {
					j.deliverP2P(m)
				}
			}
		}()
	}
}

// lookupJob returns an existing job, nil otherwise.
func (w *Worker) lookupJob(id uint64) *workerJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

// jobFor returns the job, creating a placeholder when a peer's frame
// outruns the coordinator's job-start frame (the mesh is a separate
// connection, so that race is expected). Frames for recently finished
// jobs are dropped.
func (w *Worker) jobFor(id uint64) *workerJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j, ok := w.jobs[id]; ok {
		return j
	}
	if w.closed {
		return nil
	}
	for _, d := range w.done {
		if d == id {
			return nil
		}
	}
	j := newWorkerJob(id)
	j.start = time.Now()
	w.jobs[id] = j
	return j
}

// finishJob retires a job id into the stale-frame ring.
func (w *Worker) finishJob(id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.jobs, id)
	w.done = append(w.done, id)
	if len(w.done) > 64 {
		w.done = w.done[len(w.done)-64:]
	}
}

func (w *Worker) abortAll(err error) {
	w.mu.Lock()
	jobs := make([]*workerJob, 0, len(w.jobs))
	for _, j := range w.jobs {
		jobs = append(jobs, j)
	}
	w.mu.Unlock()
	for _, j := range jobs {
		j.abort(err)
	}
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// peerConn returns the mesh connection to addr, dialing it lazily. Mesh
// connections are write-only on the dialing side; the accepting side
// reads.
func (w *Worker) peerConn(addr string) (*framedConn, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: no mesh address for destination rank")
	}
	w.mu.Lock()
	if fc, ok := w.peers[addr]; ok {
		w.mu.Unlock()
		return fc, nil
	}
	w.mu.Unlock()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial peer %s: %w", addr, err)
	}
	fc := newFramedConn(c)
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.peers[addr]; ok {
		// Lost the dial race; keep the first connection.
		c.Close()
		return prev, nil
	}
	if w.closed {
		c.Close()
		return nil, fmt.Errorf("cluster: worker closed")
	}
	w.peers[addr] = fc
	return fc, nil
}

// startJob sets the job's header and launches its runner.
func (w *Worker) startJob(hdr *jobHeader, inputs []*parfmm.RankInput) {
	j := w.jobFor(hdr.Job)
	if j == nil {
		return
	}
	j.mu.Lock()
	j.hdr = hdr
	j.mu.Unlock()
	w.jobWG.Add(1)
	go w.runJob(j, inputs)
}

// runJob executes this worker's rank range: admission through the
// elastic pool (the worker's local scheduler), then one goroutine per
// local rank — ranks exchange data mid-pass, so they must all be
// resident; the pool lease accounts the job's lane footprint and queues
// it behind local load.
func (w *Worker) runJob(j *workerJob, inputs []*parfmm.RankInput) {
	defer w.jobWG.Done()
	defer w.finishJob(j.id)
	hdr := j.hdr
	nLocal := hdr.RankHi - hdr.RankLo

	kern, err := kernels.FromSpec(hdr.Kernel)
	if err != nil {
		w.reportJobError(j, errs.Typed(err, errs.CodeInvalidInput))
		return
	}
	lease, err := w.pool.Acquire(w.runCtx, nLocal)
	if err != nil {
		w.reportJobError(j, err)
		return
	}
	defer lease.Release()

	opt := parfmm.Options{
		Kernel:    kern,
		Degree:    hdr.Degree,
		MaxPoints: hdr.MaxPoints,
		MaxDepth:  hdr.MaxDepth,
		Backend:   fmm.M2LBackend(hdr.Backend),
		PinvTol:   hdr.PinvTol,
		Trace:     hdr.Trace,
	}

	results := make([]rankResultWire, nLocal)
	var (
		errMu    sync.Mutex
		rankWG   sync.WaitGroup
		failed   bool
		localErr error // the failure that poisoned the job, if it started here
	)
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		failed = true
		// Poison the job so sibling ranks blocked on the failed rank's
		// sends unwind. Only the failure that latches first started
		// here; later ones echo it, or an abort from the coordinator.
		if j.abort(err) {
			localErr = err
		}
	}
	for i := 0; i < nLocal; i++ {
		rankWG.Add(1)
		go func(i int) {
			defer rankWG.Done()
			defer func() {
				if r := recover(); r != nil {
					if wf, ok := r.(wireFailure); ok {
						fail(wf.err)
						return
					}
					fail(errs.Newf(errs.CodeInternal, "kifmm: cluster rank %d panic: %v", hdr.RankLo+i, r))
				}
			}()
			t := &wireTransport{w: w, j: j, rank: hdr.RankLo + i}
			out, err := parfmm.EvaluateRank(w.runCtx, t, inputs[i], opt)
			if err != nil {
				fail(errs.Typed(err, errs.CodeInvalidInput))
				return
			}
			var tl []byte
			if out.Timeline != nil {
				tl, _ = json.Marshal(out.Timeline)
			}
			results[i] = rankResultWire{Rank: hdr.RankLo + i, Pot: out.Pot, TL: tl}
		}(i)
	}
	rankWG.Wait()

	if localErr != nil {
		// Nobody else knows: the coordinator would wait for this
		// worker's ranks forever.
		w.reportJobError(j, localErr)
		return
	}
	if failed {
		// The coordinator aborted the job (or a peer was lost); it
		// already knows.
		return
	}
	if err := w.ctrl.writeFrame(fJobResult, encodeJobResult(j.id, results)); err != nil {
		w.log.Warn("cluster worker: result send failed", "job", j.id, "err", err)
	}
}

func (w *Worker) reportJobError(j *workerJob, err error) {
	code := errs.CodeInternal
	if c, ok := errs.CodeOf(err); ok {
		code = c
	}
	if werr := w.ctrl.writeFrame(fJobError, encodeJobStatus(j.id, string(code), err.Error())); werr != nil {
		w.log.Warn("cluster worker: error report failed", "job", j.id, "err", werr)
	}
}

// Close drains the worker gracefully: it announces the drain so the
// coordinator stops assigning it work, waits for in-flight jobs, then
// tears the connections down and joins every goroutine.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	_ = w.ctrl.writeFrame(fDrain, nil)
	w.jobWG.Wait()
	w.teardown()
	w.wg.Wait()
	return nil
}

// Kill tears the worker down immediately — no drain, no waiting for
// jobs. In-flight local ranks abort; the coordinator notices via the
// dropped connection or a missed heartbeat. Test hook for failure
// injection, and the path crash shutdowns take.
func (w *Worker) Kill() {
	w.teardown()
	w.abortAll(errs.New(errs.CodeWorkerLost, "kifmm: worker killed"))
	w.jobWG.Wait()
	w.wg.Wait()
}

func (w *Worker) teardown() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	if w.cancelRun != nil {
		w.cancelRun()
	}
	peers := w.peers
	w.peers = make(map[string]*framedConn)
	inbound := w.inbound
	w.inbound = nil
	w.mu.Unlock()
	w.ctrl.Close()
	w.ln.Close()
	for _, fc := range peers {
		fc.Close()
	}
	for _, fc := range inbound {
		fc.Close()
	}
}
