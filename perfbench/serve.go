package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	kifmm "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/service"
)

const (
	servePoints = 1000
	serveDegree = 6
	// warmPlans is enough geometries that the median request's cost
	// does not rest on the one geometry a seed happens to draw.
	warmPlans    = 6
	warmVectors  = 4
	serveClients = 2
)

// servePlan is one geometry of the serve-mixed workload.
type servePlan struct {
	req  client.PlanRequest
	id   string
	dens [][]float64
	// ref[d] is the library's potential for dens[d] and batch its
	// batched potentials for all of dens: served answers must equal
	// them bit for bit.
	ref, batch [][]float64
}

// serveGeometry places servePoints points on 8 spheres the way
// screened-solve does, whose evaluation cost varies less from seed to
// seed than that of SpherePatches.
func serveGeometry(seed int64) client.PlanRequest {
	return client.PlanRequest{
		Src:    sphereSurfaces(rand.New(rand.NewSource(seed)), servePoints, 2, 0.3),
		Kernel: client.KernelSpec{Name: "laplace"},
		Degree: serveDegree,
	}
}

// libraryAnswers computes the library's results for a plan's densities.
func (p *servePlan) libraryAnswers(ctx context.Context) error {
	ev, err := kifmm.NewEvaluatorCtx(ctx, p.req.Src, p.req.Src, kifmm.Options{Kernel: kifmm.Laplace(), Degree: serveDegree})
	if err != nil {
		return err
	}
	defer ev.Close()
	p.ref = make([][]float64, len(p.dens))
	for d, den := range p.dens {
		if p.ref[d], err = ev.EvaluateCtx(ctx, den); err != nil {
			return err
		}
	}
	if len(p.dens) > 1 {
		p.batch, err = ev.EvaluateBatchCtx(ctx, p.dens)
	}
	return err
}

// served is what the metering middleware saw of one request.
type served struct {
	handler             time.Duration
	reqBytes, respBytes int64
}

// meter wraps the service's HTTP handler: it times the mounted handler
// and counts the bytes each request moved, keyed by the request's
// traceparent header.
type meter struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string]served
}

func (m *meter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	cr := &countReader{rc: r.Body}
	r.Body = cr
	cw := &countWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, r)
	s := served{handler: time.Since(start), reqBytes: cr.n, respBytes: cw.n}
	m.mu.Lock()
	m.seen[r.Header.Get("traceparent")] = s
	m.mu.Unlock()
}

func (m *meter) take(traceparent string) (served, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.seen[traceparent]
	delete(m.seen, traceparent)
	return s, ok
}

type countReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) Close() error { return c.rc.Close() }

type countWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// serveRig is the in-process server and its clients.
type serveRig struct {
	svc     *service.Service
	meter   *meter
	hs      *http.Server
	served  chan error
	clients []*client.Client
	http    []*http.Client
	seq     atomic.Uint64
}

func startServe() (*serveRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{})
	rig := &serveRig{svc: svc, meter: &meter{next: service.NewServer(svc), seen: map[string]served{}}, served: make(chan error, 1)}
	rig.hs = &http.Server{Handler: rig.meter}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < serveClients; i++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		opts := []client.Option{client.WithHTTPClient(hc)}
		if i == 0 {
			opts = append(opts, client.WithBinary())
		}
		rig.http = append(rig.http, hc)
		rig.clients = append(rig.clients, client.New(base, opts...))
	}
	return rig, nil
}

// stop shuts the server down and waits for it to finish serving.
func (r *serveRig) stop(ctx context.Context) error {
	for _, hc := range r.http {
		hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// traceparent returns a fresh W3C traceparent header, the key that
// joins a client call to what the middleware saw of it.
func (r *serveRig) traceparent() string {
	n := r.seq.Add(1)
	return fmt.Sprintf("00-%032x-%016x-01", n, n)
}

// call is one timed request: its client-side wall time, the client's
// own time before its request was written (send) and after the first
// response byte arrived (recv), and the middleware's view of it.
type call struct {
	wall, send, recv time.Duration
	served           served
	ok               bool
}

func (r *serveRig) do(ctx context.Context, fn func(context.Context) error) (call, error) {
	tp := r.traceparent()
	// The transport calls the hooks from its own goroutines.
	var wrote, first atomic.Int64
	s := time.Now()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(s))) },
		GotFirstResponseByte: func() { first.Store(int64(time.Since(s))) },
	})
	err := fn(client.WithTraceparent(ctx, tp))
	c := call{wall: time.Since(s)}
	c.send, c.recv = time.Duration(wrote.Load()), c.wall-time.Duration(first.Load())
	c.served, c.ok = r.meter.take(tp)
	c.ok = c.ok && wrote.Load() > 0 && first.Load() > 0
	return c, err
}

// runServe drives the HTTP service with two closed-loop clients, one
// sending frames and one JSON: 80% single evaluations of warm plans,
// 10% batches of four, 10% writes (the registration of a new seeded
// geometry followed by the first evaluation of its plan).
func runServe(ctx context.Context, cfg config, rep *report) error {
	rep.tail = 0.99
	plans := make([]*servePlan, warmPlans)
	for p := range plans {
		s := cfg.seed*1000 + int64(p)
		plans[p] = &servePlan{req: serveGeometry(s), dens: densities(s, warmVectors, servePoints)}
	}

	start := time.Now()
	rig, err := startServe()
	if err != nil {
		return err
	}
	defer func() {
		if err := rig.stop(ctx); err != nil {
			rep.attempt(false, "server shutdown: %v", err)
		}
	}()
	first := make([][]float64, warmPlans)
	for p, pl := range plans {
		info, err := rig.clients[p%serveClients].RegisterPlan(ctx, pl.req)
		if err != nil {
			return err
		}
		pl.id = info.ID
		if first[p], _, err = rig.clients[p%serveClients].Evaluate(ctx, pl.id, pl.dens[0]); err != nil {
			return err
		}
	}
	rep.setup = time.Since(start)
	if cfg.setupOnly {
		return nil
	}

	// Library references, outside the timed set-up; the accuracy of
	// the (bitwise identical) served answers is that of the library's
	// against direct summation over every target.
	for p, pl := range plans {
		if err := pl.libraryAnswers(ctx); err != nil {
			return err
		}
		for d := 0; cfg.full && d < len(pl.dens); d++ {
			if err := fullAccuracy(ctx, rep, kifmm.Laplace(), pl.req.Src, pl.dens[d], pl.ref[d]); err != nil {
				return err
			}
		}
		if cfg.corrupt && p == 0 {
			for _, v := range append(pl.ref, pl.batch...) {
				v[0] = -v[0]
			}
		}
		rep.attempt(bitsEqual(first[p], pl.ref[0]), "plan %d: first served answer differs from the library's", p)
	}

	if cfg.trace {
		if _, err := shapeLayers(ctx, rep, plans[0].req.Src); err != nil {
			return err
		}
	}
	m0 := rig.svc.Metrics()
	wrote := &writeLog{}
	t0 := rep.beginWindow()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			serveLoop(ctx, cfg, rep, rig, c, plans, wrote, t0)
		}(c)
	}
	wg.Wait()
	rep.endWindow(t0)
	m1 := rig.svc.Metrics()

	// Every write's answer against the library, outside the window.
	for _, w := range wrote.got {
		if err := w.plan.libraryAnswers(ctx); err != nil {
			return err
		}
		rep.attempt(bitsEqual(w.pot, w.plan.ref[0]), "write of seed %d: served answer differs from the library's", w.seed)
	}
	if cfg.trace {
		serveLayers(rep, m0, m1)
	}
	return nil
}

// writeLog keeps the written plans and their served answers until they
// are checked after the window.
type writeLog struct {
	mu  sync.Mutex
	got []written
}

type written struct {
	seed int64
	plan *servePlan
	pot  []float64
}

func (w *writeLog) add(x written) {
	w.mu.Lock()
	w.got = append(w.got, x)
	w.mu.Unlock()
}

// serveLoop is one closed-loop client: it sends its next request when
// the previous one has returned, until the window is over.
func serveLoop(ctx context.Context, cfg config, rep *report, rig *serveRig, c int, plans []*servePlan, wrote *writeLog, t0 time.Time) {
	cl := rig.clients[c]
	enc := [2]string{"frame", "json"}[c]
	rng := rand.New(rand.NewSource(cfg.seed*31 + int64(c)))
	var done []float64
	// timed records a request that returned: its latency and, in a
	// traced run, what the middleware saw of it.
	timed := func(k call) {
		done = append(done, ms(k.wall))
		if !cfg.trace || !k.ok {
			return
		}
		rep.sample("service.handler_ms", ms(k.served.handler))
		rep.sample("client.transport_ms", ms(k.wall-k.served.handler))
		// Blocking path: the client's time on either side of the
		// exchange and the handler's, each timed on its own; what
		// is left is loopback latency and the server's request
		// parsing outside the handler.
		rep.sample("obs.path_sum_ratio", (k.send+k.served.handler+k.recv).Seconds()/k.wall.Seconds())
		rep.sample("client.req_ms."+enc, ms(k.wall))
		rep.sample("wire.req_bytes."+enc, float64(k.served.reqBytes))
		rep.sample("wire.resp_bytes."+enc, float64(k.served.respBytes))
	}
	// engine records the engine side of an evaluation: its stage
	// breakdown and, when traced, the server's span tree.
	engine := func(k call, st client.EvalStats, root *obs.Span) {
		if !cfg.trace {
			return
		}
		rep.sample("service.engine_ms", float64(st.TotalNanos)/1e6)
		rep.sample("fmm.up_ms", float64(st.UpNanos)/1e6)
		rep.sample("fmm.down_u_ms", float64(st.DownUNanos)/1e6)
		rep.sample("fmm.down_v_ms", float64(st.DownVNanos)/1e6)
		rep.sample("fmm.down_w_ms", float64(st.DownWNanos)/1e6)
		rep.sample("fmm.down_x_ms", float64(st.DownXNanos)/1e6)
		rep.sample("fmm.leaf_ms", float64(st.EvalNanos)/1e6)
		rep.sample("fmm.flops", float64(st.Flops))
		rep.sample("fmm.lanes", float64(st.GrantedLanes))
		rep.sample("exec.granted_width", float64(st.GrantedLanes))
		if root == nil || !k.ok {
			return
		}
		for _, p := range root.Children {
			switch p.Name {
			case "up", "down", "leaf":
				rep.sample("fmm.wall_"+p.Name+"_ms", ms(p.Duration))
			}
		}
		if root.Duration > 0 && st.GrantedLanes > 0 {
			rep.sample("fmm.lane_util", float64(st.TotalNanos)/(float64(root.Duration)*float64(st.GrantedLanes)))
		}
		rep.sample("exec.lease_wait_ms", ms(leaseWait(root)))
		rep.sample("service.overhead_ms", ms(k.served.handler-root.Duration))
	}

	for i := 0; more(t0, cfg.window, done); i++ {
		traced := cfg.trace && i%2 == 0
		var (
			st   client.EvalStats
			root *obs.Span
		)
		switch r := rng.Float64(); {
		case r < 0.8:
			p, d := rng.Intn(warmPlans), rng.Intn(warmVectors)
			pl := plans[p]
			var pot []float64
			k, err := rig.do(ctx, func(ctx context.Context) (err error) {
				if traced {
					pot, st, root, err = cl.EvaluateTraced(ctx, pl.id, pl.dens[d])
				} else {
					pot, st, err = cl.Evaluate(ctx, pl.id, pl.dens[d])
				}
				return err
			})
			if err != nil {
				rep.attempt(false, "client %d evaluate: %v", c, err)
				continue
			}
			timed(k)
			rep.op(ms(k.wall), traced)
			rep.attempt(bitsEqual(pot, pl.ref[d]), "client %d: plan %d density %d differs from the library's answer", c, p, d)
			engine(k, st, root)
		case r < 0.9:
			p := rng.Intn(warmPlans)
			pl := plans[p]
			var pots [][]float64
			k, err := rig.do(ctx, func(ctx context.Context) (err error) {
				if traced {
					pots, st, root, err = cl.EvaluateBatchTraced(ctx, pl.id, pl.dens)
				} else {
					pots, st, err = cl.EvaluateBatch(ctx, pl.id, pl.dens)
				}
				return err
			})
			if err != nil {
				rep.attempt(false, "client %d batch: %v", c, err)
				continue
			}
			timed(k)
			rep.op(ms(k.wall), traced)
			ok := len(pots) == len(pl.batch)
			for q := 0; ok && q < len(pots); q++ {
				ok = bitsEqual(pots[q], pl.batch[q])
			}
			rep.attempt(ok, "client %d: plan %d batch differs from the library's answer", c, p)
			engine(k, st, root)
		default:
			// A geometry no earlier request of the run has used.
			ws := cfg.seed*1000 + warmPlans + int64(i)*serveClients + int64(c)
			pl := &servePlan{req: serveGeometry(ws), dens: densities(ws, 1, servePoints)}
			var info client.PlanInfo
			k, err := rig.do(ctx, func(ctx context.Context) (err error) {
				info, err = cl.RegisterPlan(ctx, pl.req)
				return err
			})
			if err != nil {
				rep.attempt(false, "client %d register: %v", c, err)
				continue
			}
			timed(k)
			rep.other(ms(k.wall))
			rep.attempt(info.ID != "", "client %d: register returned an empty plan id", c)
			if cfg.trace && !info.Cached {
				rep.sample("service.plan_build_ms", float64(info.BuildNanos)/1e6)
			}
			var pot []float64
			k, err = rig.do(ctx, func(ctx context.Context) (err error) {
				pot, _, err = cl.Evaluate(ctx, info.ID, pl.dens[0])
				return err
			})
			if err != nil {
				rep.attempt(false, "client %d write evaluate: %v", c, err)
				continue
			}
			timed(k)
			rep.other(ms(k.wall))
			// Checked against the library after the window.
			wrote.add(written{ws, pl, pot})
		}
	}
}

// serveLayers derives the service, client, wire and exec metrics from
// the window's samples and the service counters before (m0) and after
// (m1) it.
func serveLayers(rep *report, m0, m1 service.MetricsSnapshot) {
	h := rep.samples["service.handler_ms"]
	rep.set("service.handler_ms_p50", quantile(h, 0.5))
	rep.set("service.handler_ms_p99", quantile(h, 0.99))
	rep.set("service.engine_ms_p50", median(rep.samples["service.engine_ms"]))
	rep.set("service.overhead_ms_p50", median(rep.samples["service.overhead_ms"]))
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	if hits+misses > 0 {
		rep.set("service.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	rep.set("service.plan_build_ms_p50", median(rep.samples["service.plan_build_ms"]))
	rep.set("service.evictions", float64(m1.PlansEvicted-m0.PlansEvicted))
	rep.set("client.transport_ms_p50", median(rep.samples["client.transport_ms"]))
	rep.set("client.req_ms_p50.frame", median(rep.samples["client.req_ms.frame"]))
	rep.set("client.req_ms_p50.json", median(rep.samples["client.req_ms.json"]))
	for _, k := range []string{"wire.req_bytes.frame", "wire.req_bytes.json", "wire.resp_bytes.frame", "wire.resp_bytes.json"} {
		rep.set(k, mean(rep.samples[k]))
	}
	leaseLayers(rep)
}
