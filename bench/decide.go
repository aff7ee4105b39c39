package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/nowlater/nowlater/internal/nlserver"
	"github.com/nowlater/nowlater/internal/nlwire"
	"github.com/nowlater/nowlater/internal/overload"
	"github.com/nowlater/nowlater/internal/policy"
	"github.com/nowlater/nowlater/internal/stats"
)

// The decide workload's load shape. The operation metrics come from a
// closed loop, where every connection sends its next request as soon as
// its last is answered: the server never idles, so a request's cost does
// not depend on how cold the host left the caches between arrivals. An
// open loop at the nominal rate, a fraction of what one P serves, then
// measures latency from the due time, and the ladder multiplies that rate
// to find the highest one that still meets decideLimitMS.
const (
	decideRate     = 400 // nominal requests per second
	decideLimitMS  = 5   // latency limit on the tail at every ladder rate
	decideHotSet   = 64  // distinct repeated queries
	decideHotShare = 0.25
	decideOutShare = 0.03 // out-of-grid queries, answered by exact solves
	decideBusy     = 0.6  // share of the measured time in the closed loop
	decideNominal  = 0.2  // share at the nominal rate; the ladder has the rest
	decideWarmup   = time.Second
	decideTailP    = 99 // tail percentile of the closed loop's handler times
	// decideBusyRate is the most requests per second the closed loop draws
	// queries for, half as much again as it answers on one P of the
	// reference host; if it runs out it ends early.
	decideBusyRate  = 16000
	decideTimeout   = 2 * time.Second
	decideReadyWait = 30 * time.Second
)

// decideLadder multiplies the nominal rate in the capacity steps.
var decideLadder = []float64{2, 4, 8, 16}

// decideQueries draws n queries: a share repeats a small hot set (cache
// hits after the first), a small share lies outside the table's grid (exact
// solves), and the rest are fresh in-grid queries (table lookups).
func decideQueries(rng *rand.Rand, n int) []nlwire.Query {
	grid := policy.DefaultGrid()
	inGrid := func() nlwire.Query {
		speed := lerp(5, 20, rng.Float64())
		load := logUniform(grid.LoadMBmps[0], grid.LoadMBmps[len(grid.LoadMBmps)-1], rng.Float64())
		return nlwire.Query{
			D0M: lerp(grid.D0M[0], grid.D0M[len(grid.D0M)-1], rng.Float64()), SpeedMPS: speed,
			MdataMB: load / speed, Rho: logUniform(grid.Rho[1], grid.Rho[len(grid.Rho)-1], rng.Float64()),
		}
	}
	hot := make([]nlwire.Query, decideHotSet)
	for i := range hot {
		hot[i] = inGrid()
	}
	nHot := int(math.Round(decideHotShare * float64(n)))
	nOut := int(math.Round(decideOutShare * float64(n)))
	kinds := make([]int, n)
	for i, j := range rng.Perm(n) {
		switch {
		case i < nHot:
			kinds[j] = 1
		case i < nHot+nOut:
			kinds[j] = 2
		}
	}
	qs := make([]nlwire.Query, n)
	for i, k := range kinds {
		switch k {
		case 0:
			qs[i] = inGrid()
		case 1:
			qs[i] = hot[rng.Intn(len(hot))]
		case 2:
			q := inGrid()
			q.D0M = lerp(450, 700, rng.Float64())
			qs[i] = q
		}
	}
	return qs
}

// arrivals returns n Poisson due times at rate per second.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// decideServer is an in-process nowlaterd on a loopback listener: the
// nlserver handler stack behind an http.Server, with the CPU time each
// decide request spends in the handler recorded.
type decideServer struct {
	handler   http.Handler // the nlserver routes, inside the request timeout
	engine    *policy.Engine
	admission *overload.Admission
	http      *http.Server
	url       string
	done      chan error

	mu           sync.Mutex
	handlerCPUMS []float64
}

// ServeHTTP times decide requests through the server's handler stack in
// CPU time of the serving thread: the goroutine is locked to its thread
// for the request, so the thread's CPU clock counts this request's work
// and nothing else, and time the host takes the CPU away does not count.
func (s *decideServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != nlwire.PathDecide {
		s.handler.ServeHTTP(w, r)
		return
	}
	runtime.LockOSThread()
	cpu0 := threadCPUSeconds()
	s.handler.ServeHTTP(w, r)
	ms := (threadCPUSeconds() - cpu0) * 1000
	runtime.UnlockOSThread()
	s.mu.Lock()
	s.handlerCPUMS = append(s.handlerCPUMS, ms)
	s.mu.Unlock()
}

// takeHandlerCPUMS returns and clears the recorded handler CPU times.
func (s *decideServer) takeHandlerCPUMS() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.handlerCPUMS
	s.handlerCPUMS = nil
	return out
}

// startDecideServer builds the default-grid airplane table and serves it
// through the real nlserver handler stack, returning once /readyz is 200.
func startDecideServer(tr *Tracer) (*decideServer, error) {
	t := time.Now()
	table, err := policy.Build(context.Background(), policy.AirplaneConfig(), policy.BuildOptions{Label: "bench/decide"})
	if err != nil {
		return nil, err
	}
	tr.Record(0, "policy.build", t)
	engine, err := policy.NewEngine(table, policy.DefaultCacheSize)
	if err != nil {
		return nil, err
	}
	admission := overload.NewAdmission(overload.DefaultAdmissionConfig())
	srv := nlserver.New(nlserver.Config{
		Engine: engine, Version: "bench",
		Admission: admission, Breaker: overload.NewBreaker(overload.BreakerConfig{}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &decideServer{handler: srv.Handler(), engine: engine, admission: admission,
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	// The stack nlserver builds with a ReqTimeout, http.TimeoutHandler
	// around its routes, with the CPU timer between the two: the timeout
	// handler serves each request on a goroutine of its own, so the timer
	// must run on that goroutine.
	s.http = &http.Server{
		Handler:           http.TimeoutHandler(s, decideTimeout, "request timed out\n"),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { s.done <- s.http.Serve(ln) }()
	t = time.Now()
	deadline := time.Now().Add(decideReadyWait)
	for {
		resp, err := http.Get(s.url + nlwire.PathReadyz)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("decide server not ready after %v", decideReadyWait)
		}
		time.Sleep(time.Millisecond)
	}
	tr.Record(0, "nlserver.ready", t)
	return s, nil
}

// stop shuts the server down and waits for it.
func (s *decideServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is one request's outcome: latency runs from when the generator
// released the request (so it includes waiting for a free connection),
// late from its due time to that release.
type reply struct {
	latency, late time.Duration
	status        int
	err           error
	dec           nlwire.Decision
}

// phase is one closed loop or one open-loop run at a fixed rate.
type phase struct {
	// rate is 0 on a closed loop.
	rate float64
	// capacity marks a ladder step: above the highest passing rate, a
	// refusal there is what the step measures.
	capacity bool
	queries  []nlwire.Query
	due      []time.Duration
	replies  []reply
	// handlerCPUMS are the server-side handler CPU times of the phase.
	handlerCPUMS []float64
}

// client sends decide requests over at most one connection.
type client struct {
	http *http.Client
	url  string
}

func newClients(url string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{url: url + nlwire.PathDecide, http: &http.Client{
			Timeout: decideTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		}}
	}
	return cs
}

func (c *client) decide(q nlwire.Query) reply {
	body, err := json.Marshal(q)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return r
	}
	r.err = json.NewDecoder(resp.Body).Decode(&r.dec)
	io.Copy(io.Discard, resp.Body) // read to EOF so the connection is reused
	return r
}

// openLoop fires each request at its due time — every request that is due
// at a wake-up goes out at once — on a fixed set of connections. A request
// is timed from its release, so a stall of the server also delays the
// requests queued behind it; the generator's own lateness (release − due)
// is recorded beside it.
func openLoop(p *phase, clients []*client, tr *Tracer, idBase int64) {
	p.replies = make([]reply, len(p.due))
	released := make([]time.Duration, len(p.due))
	jobs := make(chan int, len(p.due)) // one slot per request: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range jobs {
				sent := time.Now()
				r := c.decide(p.queries[i])
				tr.Record(idBase+int64(i), "request.send_reply", sent)
				r.latency = time.Since(start) - released[i]
				p.replies[i] = r
			}
		}(c)
	}
	for i := 0; i < len(p.due); {
		now := time.Since(start)
		if p.due[i] > now {
			time.Sleep(p.due[i] - now)
			continue
		}
		for ; i < len(p.due) && p.due[i] <= now; i++ {
			released[i] = now
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	for i, at := range released {
		p.replies[i].late = at - p.due[i]
	}
}

// closedLoop sends p.queries in order, every connection sending its next
// request as soon as its last is answered, until d has passed or the
// queries run out. A request is timed from when it is sent. p.queries is
// cut to the requests sent.
func closedLoop(p *phase, clients []*client, d time.Duration, tr *Tracer, idBase int64) {
	p.replies = make([]reply, len(p.queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(p.queries) {
					return
				}
				sent := time.Now()
				r := c.decide(p.queries[i])
				tr.Record(idBase+int64(i), "request.send_reply", sent)
				r.latency = time.Since(sent)
				p.replies[i] = r
			}
		}(c)
	}
	wg.Wait()
	n := min(int(next.Load()), len(p.queries))
	p.queries, p.replies = p.queries[:n], p.replies[:n]
}

// ok reports whether a reply is a served decision.
func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK && r.dec.Error == "" }

// stepStats judges one phase against the latency limit.
type stepStats struct {
	RatePerS     float64 `json:"rate_per_s"`
	Requests     int     `json:"requests"`
	Failed       int     `json:"failed"`
	LatencyMS    Dist    `json:"latency_ms"`
	FromDueMS    Dist    `json:"from_due_ms"`
	HandlerCPUMS Dist    `json:"handler_cpu_ms"`
	FirstQP50MS  float64 `json:"first_quarter_p50_ms"`
	LastQP50MS   float64 `json:"last_quarter_p50_ms"`
	OK           bool    `json:"ok"`
}

func judge(p *phase) (stepStats, error) {
	st := stepStats{RatePerS: p.rate, Requests: len(p.replies)}
	var lat, fromDue []float64
	for _, r := range p.replies {
		if !r.ok() {
			st.Failed++
			continue
		}
		lat = append(lat, r.latency.Seconds()*1000)
		fromDue = append(fromDue, (r.latency+r.late).Seconds()*1000)
	}
	d, err := summarize(lat)
	if err != nil {
		return st, err
	}
	if st.FromDueMS, err = summarize(fromDue); err != nil {
		return st, err
	}
	if st.HandlerCPUMS, err = summarize(p.handlerCPUMS); err != nil {
		return st, err
	}
	st.LatencyMS = d
	q := len(lat) / 4
	st.FirstQP50MS, st.LastQP50MS = stats.MustMedian(lat[:q]), stats.MustMedian(lat[len(lat)-q:])
	growing := st.LastQP50MS > 2*st.FirstQP50MS+decideLimitMS/4.0
	// A failure misses every latency limit.
	st.OK = st.Failed == 0 && d.Tail <= decideLimitMS && !growing
	return st, nil
}

func runDecide(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var srv *decideServer
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		cpu0, start := processCPUSeconds(), time.Now()
		var err error
		if srv, err = startDecideServer(cfg.Tracer); err != nil {
			return nil, err
		}
		o.addSetup(cpu0, start)
	}
	defer srv.stop()

	rng := rand.New(rand.NewSource(cfg.Seed))
	conns := runtime.NumCPU()
	busyS := decideBusy * cfg.Measure.Seconds()
	warm := &phase{queries: decideQueries(rng, int(decideWarmup.Seconds()*decideBusyRate))}
	busy := &phase{queries: decideQueries(rng, int(busyS*decideBusyRate))}
	nominalS := decideNominal * cfg.Measure.Seconds()
	stepS := (1 - decideBusy - decideNominal) * cfg.Measure.Seconds() / float64(len(decideLadder))
	phases := []*phase{{rate: decideRate}}
	for _, m := range decideLadder {
		phases = append(phases, &phase{rate: m * decideRate, capacity: true})
	}
	for i, p := range phases {
		secs := stepS
		if i == 0 {
			secs = nominalS
		}
		n := int(math.Round(p.rate * secs))
		p.queries = decideQueries(rng, n)
		p.due = arrivals(rng, n, p.rate)
	}

	// The warm-up fills the policy cache and the server's pools; it is
	// checked like every other request.
	clients := newClients(srv.url, conns)
	closedLoop(warm, clients, decideWarmup, nil, 0)
	srv.takeHandlerCPUMS()

	if err := o.beginMeasure(cfg); err != nil {
		return nil, err
	}
	var idBase int64
	cpu0 := processCPUSeconds()
	closedLoop(busy, clients, time.Duration(busyS*1e9), cfg.Tracer, idBase)
	busyCPU := processCPUSeconds() - cpu0
	busy.handlerCPUMS = srv.takeHandlerCPUMS()
	idBase += int64(len(busy.queries))
	// The open loop judges latency, which is the host's to give: it runs
	// on every CPU, where the closed loop runs on one P (see run).
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	for _, p := range phases {
		srv.takeHandlerCPUMS()
		openLoop(p, clients, cfg.Tracer, idBase)
		p.handlerCPUMS = srv.takeHandlerCPUMS()
		idBase += int64(len(p.due))
	}
	runtime.GOMAXPROCS(procs)
	o.endMeasure()
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}

	// Judge the ladder, then check every answer against a direct engine
	// over the same table.
	var steps []stepStats
	maxOK := 0.0
	for _, p := range phases {
		st, err := judge(p)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		if st.OK {
			maxOK = max(maxOK, p.rate)
		}
	}
	// An operation's cost is the server's handler CPU time in the closed
	// loop: on a shared host whose CPUs are taken away for a fifth of the
	// time or more, wall latencies move by a quarter between runs of the
	// same code while CPU times hold. The client's latencies, from release
	// and from the due time, are kept in the ladder details.
	//
	// The tail is the p99, not the highest percentile the sample count
	// allows (p99.9 over the loop's 200,000 or so requests): the p99.9
	// reads the slowest exact solves, the ones a collector assist or a
	// page fault met, and moved by 10% between runs of the same code,
	// while the p99 sits inside the exact-solve share. The p99.9 is kept
	// in the details.
	op, err := summarizeAt(busy.handlerCPUMS, decideTailP)
	if err != nil {
		return nil, err
	}
	if o.Details["op_ms_p99.9"], err = stats.Quantile(busy.handlerCPUMS, 0.999); err != nil {
		return nil, err
	}
	answered := 0
	for _, r := range busy.replies {
		if r.ok() {
			answered++
		}
	}
	o.Metrics["op_ms_p50"] = op.P50
	o.Metrics["op_ms_tail"] = op.Tail
	o.Metrics["work_per_cpu_s"] = float64(answered) / busyCPU
	o.Details["op"] = "one decision request in the closed loop: server handler CPU ms"
	o.Details["op_ms"] = op
	o.Details["work"] = "answered requests per process CPU second in the closed loop"
	o.Details["ladder"] = steps
	o.Details["latency_limit_ms"] = decideLimitMS
	o.Details["decide_max_ok_rps"] = maxOK
	o.Details["connections"] = conns

	check, err := policy.NewEngine(srv.engine.Table(), policy.DefaultCacheSize)
	if err != nil {
		return nil, err
	}
	degraded := tally(o, append([]*phase{warm, busy}, phases...), maxOK, check)
	o.Details["degraded_answers"] = degraded

	if cfg.Tracer != nil {
		st := srv.engine.Stats()
		m := o.Metrics
		m["policy.cache_hit_ratio"] = st.CacheHitRatio()
		m["policy.exact_fallbacks"] = float64(st.ExactFallbacks())
		m["policy.degraded_ratio"] = st.DegradedRatio()
		as := srv.admission.Stats()
		m["overload.shed"] = float64(as.ShedQueueFull + as.ShedQueueWait)
		p50, err := serverP50MS(srv.url)
		if err != nil {
			return nil, err
		}
		m["nlserver.server_ms_p50"] = p50
		m["decide.max_ok_rps"] = maxOK
		late := make([]float64, len(phases[0].replies))
		for i, r := range phases[0].replies {
			late[i] = r.late.Seconds() * 1000
		}
		if m["bench.gen_late_ms_p99"], err = stats.Quantile(late, 0.99); err != nil {
			return nil, err
		}
		m["scenario.table_build_s"] = cfg.Tracer.Total("policy.build") / setupRuns
	}
	return o, nil
}

// refused reports whether a reply is a refusal (429) or a client timeout:
// the expected outcome of a capacity step above the highest passing rate.
func refused(r reply) bool {
	var ne net.Error
	return r.status == http.StatusTooManyRequests || errors.As(r.err, &ne) && ne.Timeout()
}

// tally counts every reply of every phase as an attempt and checks each
// served answer against check, a direct engine over the same table. A
// reply that is not a served decision is a failure, except a refusal on a
// capacity step above maxOK: there it is what the step measures. It
// returns the number of degraded answers, which are not checked.
func tally(o *outcome, phases []*phase, maxOK float64, check *policy.Engine) (degraded int) {
	for _, p := range phases {
		capacity := p.capacity && p.rate > maxOK
		for j, r := range p.replies {
			o.Attempted++
			if !r.ok() {
				if !capacity || !refused(r) {
					o.fail("rate %g request %d: status %d err %v %s", p.rate, j, r.status, r.err, r.dec.Error)
				}
				continue
			}
			if r.dec.Degraded {
				degraded++
				continue
			}
			want, err := check.Decide(p.queries[j].Policy())
			if err != nil {
				o.fail("rate %g request %d: direct decide: %v", p.rate, j, err)
				continue
			}
			w := nlwire.FromDecision(want)
			got := r.dec
			if got.DoptM != w.DoptM || got.Utility != w.Utility || got.CommDelayS != w.CommDelayS ||
				got.Survival != w.Survival || got.TransmitImmediately != w.TransmitImmediately {
				o.fail("rate %g request %d: served %+v, direct %+v", p.rate, j, got, w)
			}
		}
	}
	return degraded
}

// threadCPUSeconds reads the CPU time of the calling OS thread.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return math.NaN()
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// serverP50MS estimates the median server-side decision latency from the
// /metrics histogram, interpolating within the median's bucket.
func serverP50MS(url string) (float64, error) {
	resp, err := http.Get(url + nlwire.PathMetrics)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	type bucket struct{ le, cum float64 }
	var bs []bucket
	sc := bufio.NewScanner(resp.Body)
	const prefix = `nowlaterd_decision_latency_seconds_bucket{le="`
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		leS, cumS, ok := strings.Cut(rest, `"} `)
		if !ok {
			return 0, fmt.Errorf("metrics: bad bucket line %q", sc.Text())
		}
		le, err1 := strconv.ParseFloat(leS, 64) // "+Inf" parses to +Inf
		cum, err2 := strconv.ParseFloat(cumS, 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, fmt.Errorf("metrics: %w", err)
		}
		bs = append(bs, bucket{le, cum})
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, errors.New("metrics: no decision latency histogram")
	}
	half := bs[len(bs)-1].cum / 2
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= half {
			if math.IsInf(b.le, 1) {
				return lo * 1000, nil
			}
			return (lo + (b.le-lo)*(half-below)/(b.cum-below)) * 1000, nil
		}
		lo, below = b.le, b.cum
	}
	return lo * 1000, nil
}
