package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/experiments"
	"aimes/internal/server"
)

// Open-loop shape of daemon-burst: one stream cycle (every Table I
// experiment at every size, 28 jobs) arrives at once every burstPeriod on
// average, so every burst carries the same work and queueing within the
// burst, not scheduler noise, sets latency. The rate keeps the daemon
// about 40% busy on two cores.
const burstPeriod = 175 * time.Millisecond

// jobTimeout bounds one job's submit-to-final time.
const jobTimeout = 60 * time.Second

var tenantTokens = [2]string{"bench-skewed", "bench-balanced"}

// daemonRun drives daemon-burst: an in-process aimes-server on a loopback
// listener, two tenants each on one HTTP/2 cleartext connection, jobs
// arriving in seeded bursts whether or not earlier ones finished.
type daemonRun struct {
	seed   int64
	stream []*jobSpec
	cursor int
	sched  *rand.Rand

	latencies []float64    // ms, due time → final, untraced segments
	lags      []float64    // ms, due time → submit sent, untraced segments
	sideFails atomic.Int64 // failed SSE streams and scrapes, this segment
	obs       observations
	srvObs    serverObs
}

// serverObs are the per-layer counts of the HTTP layer, traced segments.
type serverObs struct {
	mu          sync.Mutex
	submitMs    []float64
	finalBytes  int64
	finalJobs   int
	sseEvents   int64
	sseDropped  int64
	sseJobs     int
	scrapeMs    []float64
	jobsDropped int64
}

// daemon is one segment's server, listener and tenant clients.
type daemon struct {
	env     *aimes.Environment
	srv     *server.Server
	hs      *http.Server
	served  chan error
	trs     [2]*http.Transport
	clients [2]*client.Client
}

func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

func startDaemon(seed int64, tr *tracer, so *serverObs) (*daemon, error) {
	env, err := aimes.NewEnv(aimes.WithSeed(seed), aimes.WithShards(2), aimes.WithWorkStealing())
	if err != nil {
		return nil, fmt.Errorf("building environment: %w", err)
	}
	d, err := serve(env, tr, so)
	if err != nil {
		env.Close()
		return nil, err
	}
	return d, nil
}

// serve puts env behind a server on a loopback listener and connects one
// client per tenant, each through its own single-connection transport.
func serve(env *aimes.Environment, tr *tracer, so *serverObs) (*daemon, error) {
	auth, err := server.NewAuth(map[string]server.Tenant{
		tenantTokens[0]: {Name: "skewed"},
		tenantTokens[1]: {Name: "balanced"},
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Env: env, Auth: auth})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{env: env, srv: srv, served: make(chan error, 1)}
	d.hs = &http.Server{Handler: srv.Handler(), Protocols: h2c()}
	go func() { d.served <- d.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for k := range d.clients {
		d.trs[k] = &http.Transport{Protocols: h2c(), MaxConnsPerHost: 1}
		var rt http.RoundTripper = d.trs[k]
		if tr != nil {
			rt = &spanRT{base: rt, tr: tr, so: so}
		}
		d.clients[k] = client.New(base, tenantTokens[k]).WithHTTPClient(&http.Client{Transport: rt})
	}
	return d, nil
}

// stop drains the daemon (every job is already final), closes the
// environment and the client connections, then the listener.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	// Client side first: an HTTP/2 server waits a second for a peer that
	// keeps its connection open after the GOAWAY.
	for _, t := range d.trs {
		t.CloseIdleConnections()
	}
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

func (r *daemonRun) segment(d time.Duration, tr *tracer) (*segment, error) {
	seg := &segment{}
	t0 := time.Now()
	dm, err := startDaemon(r.seed, tr, &r.srvObs)
	if err != nil {
		return nil, err
	}
	seg.setup = time.Since(t0)

	offsets := burstOffsets(r.sched, int(d/burstPeriod), burstPeriod)
	m := startMeter(seg)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		lats   []float64
		lags   []float64
		failed int
	)
	for _, off := range offsets {
		due := m.t0.Add(off)
		time.Sleep(time.Until(due))
		for i := 0; i < len(sizeCycle)*len(experiments.TableI); i++ {
			js := r.stream[r.cursor%len(r.stream)]
			r.cursor++
			jobNo := r.cursor
			wg.Add(1)
			go func() {
				defer wg.Done()
				sent, final, err := r.job(dm, js, due, jobNo, tr, &wg)
				lat, lag := openLoopTimes(due, sent, final)
				mu.Lock()
				defer mu.Unlock()
				lags = append(lags, ms(lag))
				if err != nil {
					failed++
					r.obs.fail("job %d: %v", jobNo, err)
					return
				}
				lats = append(lats, ms(lat))
			}()
		}
	}
	wg.Wait()
	m.stop()
	if tr != nil {
		r.observeDaemon(dm, len(lats))
	}
	seg.jobs, seg.failed = len(lats), failed+int(r.sideFails.Swap(0))
	if err := dm.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	m.stopChildren()
	if tr == nil {
		r.latencies = append(r.latencies, lats...)
		r.lags = append(r.lags, lags...)
	}
	return seg, nil
}

type spanKey struct{}

// spanCtx carries the job span an HTTP request belongs to, and collects
// the size of the last response body read under it.
type spanCtx struct {
	parent   int64
	job      int
	lastBody int64
}

// job submits one job, waits for its final state by long-poll and, for a
// followed job, also reads its SSE stream to the end. It returns when the
// submit was sent and when the final state arrived.
func (r *daemonRun) job(dm *daemon, js *jobSpec, due time.Time, jobNo int, tr *tracer, wg *sync.WaitGroup) (sent, final time.Time, err error) {
	c := dm.clients[js.tenant]
	base := context.Background()
	var sc *spanCtx
	var root openSpan
	if tr != nil {
		root = tr.open("job", 0, jobNo)
		defer tr.close(root)
		sc = &spanCtx{parent: root.id, job: jobNo}
		base = context.WithValue(base, spanKey{}, sc)
	}
	// A job that never finishes fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(base, jobTimeout)
	defer cancel()
	sent = time.Now()
	info, err := c.SubmitRaw(ctx, js.req)
	if err != nil {
		return sent, sent, fmt.Errorf("submit: %w", err)
	}
	if js.follow {
		fctx, fcancel := context.WithTimeout(base, jobTimeout)
		es, err := c.Events(fctx, info.ID, 0)
		if err != nil {
			fcancel()
			return sent, sent, fmt.Errorf("events: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fcancel()
			r.follow(es, tr != nil)
		}()
	}
	rep, err := c.Wait(ctx, info.ID)
	final = time.Now()
	if err != nil {
		return sent, final, fmt.Errorf("wait: %w", err)
	}
	if err := checkReport(rep, js.w.TotalTasks()); err != nil {
		return sent, final, err
	}
	r.obs.report(rep, reportShard(rep))
	if sc != nil {
		r.srvObs.mu.Lock()
		r.srvObs.finalBytes += sc.lastBody
		r.srvObs.finalJobs++
		r.srvObs.mu.Unlock()
	}
	return sent, final, nil
}

// reportShard reads the shard a job finished on from its pilot IDs, which
// carry the shard-qualified namespace ("pilot.<site>.s<k>-j<n>-<i>").
func reportShard(r *aimes.Report) int {
	for id := range r.PilotWaits {
		if i := strings.LastIndex(id, ".s"); i >= 0 {
			rest := id[i+2:]
			if j := strings.IndexByte(rest, '-'); j > 0 {
				if k, err := strconv.Atoi(rest[:j]); err == nil {
					return k
				}
			}
		}
	}
	return -1
}

// follow reads a job's SSE stream until it ends.
func (r *daemonRun) follow(es *client.EventStream, traced bool) {
	var n int64
	for range es.C {
		n++
	}
	if err := es.Err(); err != nil {
		r.sideFails.Add(1)
		r.obs.fail("sse: %v", err)
	}
	if !traced {
		return
	}
	r.srvObs.mu.Lock()
	defer r.srvObs.mu.Unlock()
	r.srvObs.sseEvents += n
	r.srvObs.sseDropped += es.Dropped()
	r.srvObs.sseJobs++
	if f := es.Final(); f != nil {
		r.obs.mu.Lock()
		r.obs.events += n + f.EventsDropped
		r.obs.traceJobs++
		r.obs.mu.Unlock()
	}
}

// observeDaemon reads the daemon's layer counters after a traced segment:
// a timed /metrics scrape, then the environment-level counters.
func (r *daemonRun) observeDaemon(dm *daemon, jobs int) {
	t0 := time.Now()
	text, err := dm.clients[0].Metrics(context.Background())
	took := time.Since(t0)
	if err != nil {
		r.sideFails.Add(1)
		r.obs.fail("metrics scrape: %v", err)
		return
	}
	dropped := promSum(text, "aimes_job_events_dropped_total")
	r.srvObs.mu.Lock()
	r.srvObs.scrapeMs = append(r.srvObs.scrapeMs, ms(took))
	r.srvObs.jobsDropped += int64(dropped)
	r.srvObs.mu.Unlock()
	observeEnv(&r.obs, dm.env, jobs)
}

// promSum adds up every sample of a metric family in a Prometheus text
// exposition.
func promSum(text, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || len(line) == len(name) || (line[len(name)] != ' ' && line[len(name)] != '{') {
			continue
		}
		if f, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += f
		}
	}
	return sum
}

// spanRT records a span per HTTP request of a traced segment, parented to
// the request's job span, and the size of each response body.
type spanRT struct {
	base http.RoundTripper
	tr   *tracer
	so   *serverObs
}

func (t *spanRT) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, _ := req.Context().Value(spanKey{}).(*spanCtx)
	var parent int64
	var job int
	if sc != nil {
		parent, job = sc.parent, sc.job
	}
	name := "http " + req.Method + " " + route(req.URL.Path)
	sp := t.tr.open(name, parent, job)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.close(sp)
		return nil, err
	}
	if req.Method == http.MethodPost {
		t.so.mu.Lock()
		t.so.submitMs = append(t.so.submitMs, ms(time.Since(t0)))
		t.so.mu.Unlock()
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, sp: sp, sc: sc}
	return resp, nil
}

// route names a request path by its route pattern.
func route(p string) string {
	switch {
	case strings.HasSuffix(p, "/events"):
		return "/v1/jobs/{id}/events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	}
	return p
}

// spanBody ends a request's span when its body is closed: for a long-poll
// or an SSE stream that is when the response is complete.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   openSpan
	sc   *spanCtx
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.tr.close(b.sp)
		if b.sc != nil && b.sp.name == "http GET /v1/jobs/{id}" {
			b.sc.lastBody = b.n
		}
	})
	return err
}
