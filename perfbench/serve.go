package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/fleet"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

// serveVersion is the code version every daemon of the in-process
// fleet folds into its keys, so coordinator and workers alias.
const serveVersion = "perfbench"

// Request kinds of the serve-mix sequence.
const (
	kindHot     = "hot"     // a repeat of a primed key: a coordinator cache hit
	kindFresh   = "fresh"   // a never-seen key: a simulation
	kindPrimary = "primary" // a fresh key followed at once by its duplicate
	kindDup     = "dup"     // the duplicate: joins the primary's run
)

// serveWorkers is the number of daemons behind the coordinator.
const serveWorkers = 2

// servePlan is the fixed work of one serve-mix run.
type servePlan struct {
	requests int     // timed requests
	rate     float64 // requests per second, open loop
	hot      int     // primed keys
	// Per block of requests: fresh policies and fig3 requests and
	// duplicate pairs, evenly spaced; the rest repeat hot keys.
	block, policies, fig3, pairs int
	quantum, warmup              int64
	setups                       int
}

// servePlanFor sizes serve-mix: the open loop runs for the given
// seconds at 80 requests/s, so --seconds 30 sends 2400 requests, 36 of
// them misses and 12 duplicates that wait on one. A block of 200
// requests (2.5 s) holds three misses, 1.5% of the requests, so the 24
// requests beyond the nearest-rank p99 are among those 48 and p99 sits
// near their middle, not in their tail: misses caught in a slow spell
// of the host do not decide it. A miss takes 0.2-0.4 s on a 2-core x86
// VM, under half the 0.83 s between misses, so misses neither overlap
// nor queue when the host runs slow.
func servePlanFor(seconds int, traced bool) servePlan {
	p := servePlan{requests: seconds * 80, rate: 80, hot: 4, block: 200,
		policies: 1, fig3: 1, pairs: 1, quantum: 50_000, warmup: 100_000, setups: 3}
	if traced {
		p.setups = 1
	}
	return p
}

// serveReq is one request of the sequence.
type serveReq struct {
	kind string
	req  api.JobRequest
	pair int // index of the primary a dup duplicates
}

func jobRequest(exp, bench string, seed int64, p servePlan) api.JobRequest {
	return api.JobRequest{Experiment: exp, Benchmarks: []string{bench}, Quantum: p.quantum, Warmup: p.warmup, Seed: &seed}
}

// serveSequence generates the hot set and the timed request sequence
// from the seed. Hot keys and fresh keys draw seeds from disjoint
// ranges and no fresh key repeats except as its duplicate, so whether
// a request hits, misses or coalesces never depends on timing. The
// fresh requests of a block are spread evenly through it, so one
// simulation ends before the next is due: a miss's latency is its own
// service time, not a queue behind another miss.
func serveSequence(p servePlan, seed int64) (hot []api.JobRequest, seq []serveReq) {
	rng := rand.New(rand.NewSource(seed))
	benches := []string{"crafty", "mcf"}
	exps := []string{experiment.NamePolicies, experiment.NameFigure3}
	for i := 0; i < p.hot; i++ {
		hot = append(hot, jobRequest(exps[i%2], benches[i/2%2], seed*1_000_000+int64(i), p))
	}
	// Fresh requests of each experiment alternate their benchmark, so
	// every run simulates the same mix and only the programs (and the
	// order) vary with the seed.
	next := seed*1_000_000 + 1000
	perExp := map[string]int{}
	fresh := func(exp string) api.JobRequest {
		next++
		perExp[exp]++
		return jobRequest(exp, benches[perExp[exp]%len(benches)], next, p)
	}
	for len(seq) < p.requests {
		var kinds []string
		for i := 0; i < p.policies; i++ {
			kinds = append(kinds, experiment.NamePolicies)
		}
		for i := 0; i < p.fig3; i++ {
			kinds = append(kinds, experiment.NameFigure3)
		}
		for i := 0; i < p.pairs; i++ {
			kinds = append(kinds, kindPrimary)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		blockEnd := len(seq) + p.block
		for k, kind := range kinds {
			switch kind {
			case kindPrimary:
				r := fresh(experiment.NamePolicies)
				seq = append(seq, serveReq{kind: kindPrimary, req: r},
					serveReq{kind: kindDup, req: r, pair: len(seq)})
			default:
				seq = append(seq, serveReq{kind: kindFresh, req: fresh(kind)})
			}
			segEnd := blockEnd - (len(kinds)-1-k)*(p.block/len(kinds))
			for len(seq) < segEnd {
				seq = append(seq, serveReq{kind: kindHot, req: hot[rng.Intn(len(hot))]})
			}
		}
	}
	return hot, seq[:p.requests]
}

// fleetRig is the in-process serving stack: workers and a coordinator
// on loopback listeners.
type fleetRig struct {
	dir      string
	workers  []*server.Server
	urls     []string
	coord    *fleet.Coordinator
	coordURL string
	https    []*http.Server
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (r *fleetRig) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed once close stops it
	r.https = append(r.https, hs)
}

func startFleet(p servePlan, dir string) (*fleetRig, error) {
	rig := &fleetRig{dir: dir}
	for i := 0; i < serveWorkers; i++ {
		ln, url, err := listen()
		if err != nil {
			rig.close()
			return nil, err
		}
		wdir := filepath.Join(dir, "w"+strconv.Itoa(i))
		srv, err := server.New(server.Options{MaxConcurrent: 1, Parallelism: 1, Version: serveVersion, Advertise: url,
			CacheDir: filepath.Join(wdir, "results"), WarmupCacheDir: filepath.Join(wdir, "warm")})
		if err != nil {
			ln.Close()
			rig.close()
			return nil, err
		}
		rig.serve(ln, srv.Handler())
		rig.workers = append(rig.workers, srv)
		rig.urls = append(rig.urls, url)
	}
	ln, url, err := listen()
	if err != nil {
		rig.close()
		return nil, err
	}
	coord, err := fleet.New(fleet.Options{Workers: rig.urls, HedgeAfter: -1, PollInterval: 500 * time.Millisecond,
		Version: serveVersion})
	if err != nil {
		ln.Close()
		rig.close()
		return nil, err
	}
	rig.coord = coord
	rig.serve(ln, coord.Handler())
	rig.coordURL = url
	return rig, nil
}

// close stops the coordinator and the workers, waits for their jobs
// and removes their on-disk caches.
func (r *fleetRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if r.coord != nil {
		errs = append(errs, r.coord.Shutdown(ctx))
	}
	for _, w := range r.workers {
		errs = append(errs, w.Shutdown(ctx))
	}
	// The daemons are drained; close the listeners and connections at
	// once (a graceful Shutdown waits 5 s on connections a client dialed
	// but never used).
	for _, hs := range r.https {
		errs = append(errs, hs.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}

func newClient(url string, tr *tracing.Tracer) *client.Client {
	c := client.New(url)
	// One attempt: a refused (429) request is a failed op, not a retry.
	c.Retry = &client.RetryPolicy{MaxAttempts: 1}
	c.PollInterval = 50 * time.Millisecond
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	c.Tracer = tr
	return c
}

// prime runs the hot keys one after another (so set-up is the same
// work whichever daemon each key hashes to) and returns their job ids
// and artifacts.
func prime(ctx context.Context, cl *client.Client, hot []api.JobRequest) ([]string, [][]byte, error) {
	ids := make([]string, len(hot))
	arts := make([][]byte, len(hot))
	for i, req := range hot {
		st, err := cl.Submit(ctx, req)
		if err == nil {
			st, err = cl.Wait(ctx, st.ID, nil)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("priming: %w", err)
		}
		if st.Status != api.StatusDone {
			return nil, nil, fmt.Errorf("priming: job %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		ids[i] = st.ID
		if arts[i], err = cl.Artifact(ctx, st.ID, "json"); err != nil {
			return nil, nil, fmt.Errorf("priming: %w", err)
		}
	}
	return ids, arts, nil
}

// outcome is what one timed request measured.
type outcome struct {
	traced  bool
	latency time.Duration // from when the request was due to done
	id      string
	final   *api.JobStatus
	err     error
}

// loadStats describes how well the generator kept its schedule.
type loadStats struct {
	lateMax     time.Duration
	inflightMax int
}

// sendAll runs the open loop: request i is due at start + i/rate and
// timed from then; at most conc submissions are in flight at once, and
// a request accepted but not yet done is waited on outside that bound
// (do calls accept once the submit returns). A duplicate is submitted
// only after its primary was accepted. Every request yields an
// outcome: none is dropped.
func sendAll(ctx context.Context, seq []serveReq, rate float64, conc int, do func(i int, r serveReq, accept func()) outcome) ([]outcome, loadStats) {
	out := make([]outcome, len(seq))
	accepted := make([]chan struct{}, len(seq))
	for i := range seq {
		accepted[i] = make(chan struct{})
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ls       loadStats
		inflight int
	)
	sem := make(chan struct{}, conc)
	start := time.Now()
	for i, r := range seq {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		sem <- struct{}{}
		ls.lateMax = max(ls.lateMax, time.Since(due))
		mu.Lock()
		inflight++
		ls.inflightMax = max(ls.inflightMax, inflight)
		mu.Unlock()
		wg.Add(1)
		go func(i int, r serveReq) {
			defer wg.Done()
			var once sync.Once
			accept := func() { once.Do(func() { <-sem; close(accepted[i]) }) }
			defer accept()
			if r.kind == kindDup {
				<-accepted[r.pair]
			}
			o := do(i, r, accept)
			o.latency = time.Since(due)
			if o.err != nil {
				o.err = fmt.Errorf("request %d (%s %s): %w", i, r.kind, r.req.Experiment, o.err)
			}
			out[i] = o
			mu.Lock()
			inflight--
			mu.Unlock()
		}(i, r)
	}
	wg.Wait()
	return out, ls
}

// request submits one request and waits for it to end.
func request(ctx context.Context, cl *client.Client, r serveReq, accept func()) outcome {
	var o outcome
	st, err := cl.Submit(ctx, r.req)
	accept()
	if err != nil {
		o.err = err
		return o
	}
	o.id = st.ID
	if err := classify(r.kind, st); err != nil {
		o.err = err
		return o
	}
	if !st.Status.Terminal() {
		if st, err = cl.Wait(ctx, st.ID, nil); err != nil {
			o.err = err
			return o
		}
	}
	o.final = st
	if st.Status != api.StatusDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	return o
}

// classify checks a submit response against the request's kind: a hot
// repeat is a cache hit, a fresh key is neither a hit nor a join, and a
// duplicate joins its primary (its id is checked after the loop).
func classify(kind string, st *api.JobStatus) error {
	switch {
	case kind == kindHot && !st.Cached:
		return fmt.Errorf("hot repeat not served from the cache (status %s)", st.Status)
	case (kind == kindFresh || kind == kindPrimary) && (st.Cached || st.Coalesced):
		return fmt.Errorf("fresh key served as cached=%t coalesced=%t", st.Cached, st.Coalesced)
	case kind == kindDup && !st.Coalesced:
		return fmt.Errorf("duplicate not coalesced (status %s, cached=%t)", st.Status, st.Cached)
	}
	return nil
}

// serveCounters are the serving counters read before and after the
// timed phase: the coordinator's edge counters and the workers' own.
type serveCounters struct {
	submitted, hits, coalesced, runs, rejected int64
	warmHits, warmMisses                       float64
}

func (c serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{c.submitted - b.submitted, c.hits - b.hits, c.coalesced - b.coalesced,
		c.runs - b.runs, c.rejected - b.rejected, c.warmHits - b.warmHits, c.warmMisses - b.warmMisses}
}

func readCounters(ctx context.Context, coord *client.Client, workers []*client.Client) (serveCounters, error) {
	var c serveCounters
	// The coordinator's FleetStats shares these three fields with a
	// daemon's Stats.
	st, err := coord.Stats(ctx)
	if err != nil {
		return c, err
	}
	c.submitted, c.hits, c.coalesced = st.Submitted, st.CacheHits, st.Coalesced
	for _, w := range workers {
		st, err := w.Stats(ctx)
		if err != nil {
			return c, err
		}
		c.runs += st.Runs
		c.rejected += st.Rejected
		body, err := w.Metrics(ctx)
		if err != nil {
			return c, err
		}
		c.warmHits += promValue(body, "heatstroked_warmup_cache_hits_total")
		c.warmMisses += promValue(body, "heatstroked_warmup_cache_misses_total")
	}
	return c, nil
}

// promValue sums the samples of one metric in a Prometheus text
// exposition.
func promValue(body []byte, metric string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), metric)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// runServeMix is the serve-mix workload: an in-process fleet coordinator
// in front of two in-process daemons, driven over loopback by an open
// loop of mostly cached repeats plus fresh simulations and duplicates.
func runServeMix(ctx context.Context, p params) (*report, error) {
	return serveRun(ctx, p, servePlanFor(p.seconds, p.traced))
}

func serveRun(ctx context.Context, p params, plan servePlan) (*report, error) {
	hot, seq := serveSequence(plan, p.seed)
	var rig *fleetRig
	var hotIDs []string
	var primed [][]byte
	var setups []float64
	for i := 0; i < plan.setups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		dir := filepath.Join(p.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
		var err error
		if rig, err = startFleet(plan, dir); err != nil {
			return nil, err
		}
		cl := newClient(rig.coordURL, nil)
		hotIDs, primed, err = prime(ctx, cl, hot)
		cl.HTTPClient.CloseIdleConnections()
		if err != nil {
			rig.close()
			return nil, err
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}
	rep, err := serveTimed(ctx, p, plan, rig, seq, hotIDs, primed)
	if cerr := rig.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !p.traced {
		rep.metrics["setup_s"] = median(setups)
		fmt.Fprintf(p.log, "serve-mix: setups %v s\n", setups)
	}
	return rep, nil
}

// serveTimed runs the timed phase against a primed fleet, checks every
// output and derives the run's metrics.
func serveTimed(ctx context.Context, p params, plan servePlan, rig *fleetRig, seq []serveReq, hotIDs []string, primed [][]byte) (*report, error) {
	plain := newClient(rig.coordURL, nil)
	defer plain.HTTPClient.CloseIdleConnections()
	clients := []*client.Client{plain}
	var clientSpans *tracing.Tracer
	if p.traced {
		// Traced runs alternate requests between a client that records
		// its spans and one that does not, so the tracing overhead is
		// the difference of the two halves' medians in one run.
		clientSpans = tracing.NewTracer("perfbench-client", spanCapacity)
		tc := newClient(rig.coordURL, clientSpans)
		defer tc.HTTPClient.CloseIdleConnections()
		clients = append(clients, tc)
	}
	var workers []*client.Client
	for _, u := range rig.urls {
		w := newClient(u, nil)
		defer w.HTTPClient.CloseIdleConnections()
		workers = append(workers, w)
	}
	before, err := readCounters(ctx, plain, workers)
	if err != nil {
		return nil, err
	}
	timed := time.Now()
	outs, ls := sendAll(ctx, seq, plan.rate, runtime.NumCPU(), func(i int, r serveReq, accept func()) outcome {
		cl := clients[i%len(clients)]
		o := request(ctx, cl, r, accept)
		o.traced = cl.Tracer != nil
		return o
	})
	elapsed := time.Since(timed).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := readCounters(ctx, plain, workers)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)

	rep := &report{metrics: map[string]float64{}}
	h := sha256.New()
	badHot := map[string]bool{}
	for i, id := range hotIDs {
		art, err := plain.Artifact(ctx, id, "json")
		if err != nil || !bytes.Equal(art, primed[i]) {
			badHot[id] = true
			rep.fail("hot key %s: artifact differs from the primed one (err %v)", id[:12], err)
		}
		fmt.Fprintf(h, "hot %s\n", art)
	}
	var split [2][]float64 // [untraced, traced]
	var lat, miss, sweepMs, overheadMs []float64
	var cycles float64
	var missIDs []string
	missByExp := map[string][]float64{}
	var sw sweepTotals
	for _, i := range account(rep, seq, outs, badHot) {
		o, r := outs[i], seq[i]
		l := ms(o.latency)
		lat = append(lat, l)
		t := 0
		if o.traced {
			t = 1
		}
		split[t] = append(split[t], l)
		if r.kind != kindFresh && r.kind != kindPrimary {
			continue
		}
		miss = append(miss, l)
		missByExp[r.req.Experiment] = append(missByExp[r.req.Experiment], l)
		missIDs = append(missIDs, o.id)
		if s := o.final.Summary; s != nil {
			sw.add(s)
			cycles += s.Metrics[sweep.MetricSimCycles].Sum
			sweepMs = append(sweepMs, ms(s.WallTime))
			overheadMs = append(overheadMs, l-ms(s.WallTime))
		}
		art, err := plain.Artifact(ctx, o.id, "json")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "%s %s\n", r.req.Experiment, art)
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	fmt.Fprintf(p.log, "serve-mix: %d requests in %.1fs, %d misses (p50 %.1f ms, sweep p50 %.1f ms), p99 %.1f ms (%d beyond), late max %v, in flight max %d\n",
		len(outs), elapsed, len(miss), median(miss), median(sweepMs), percentile(lat, 99), beyond(len(lat), 99),
		ls.lateMax.Round(time.Millisecond), ls.inflightMax)
	for _, e := range []string{experiment.NamePolicies, experiment.NameFigure3} {
		if m := missByExp[e]; len(m) > 0 {
			fmt.Fprintf(p.log, "serve-mix:   %-8s %2d misses, p50 %.1f ms, range %.1f-%.1f ms\n", e, len(m), median(m), percentile(m, 0), percentile(m, 100))
		}
	}
	if !p.traced {
		// The open loop fixes the timed phase's length, so simulation
		// speed here is per second a miss's sweep ran: the mean miss's
		// measured core-cycles over the median sweep wall time. A ratio
		// of sums would let the few misses caught in a slow spell of
		// the host move it, and a median of per-miss rates would sit
		// among the slowest policies sweeps, since a fig3 miss measures
		// fewer cycles than a policies miss.
		if w := median(sweepMs); w > 0 {
			rep.metrics["sim_mcps"] = cycles / float64(len(sweepMs)) / w / 1e3
		}
		rep.metrics["op_ms_p50"] = median(lat)
		rep.metrics["op_ms_p99"] = percentile(lat, 99)
		rep.metrics["miss_ms_p50"] = median(miss)
		return rep, nil
	}
	m := rep.metrics
	sw.metrics(m)
	m["server.cache_hits"] = float64(delta.hits)
	m["server.coalesced"] = float64(delta.coalesced)
	m["server.runs"] = float64(delta.runs)
	m["server.rejected"] = float64(delta.rejected)
	if delta.submitted > 0 {
		m["server.hit_ratio"] = float64(delta.hits) / float64(delta.submitted)
	}
	m["server.warm_hits"] = delta.warmHits
	m["server.warm_misses"] = delta.warmMisses
	m["server.sweep_ms_p50"] = median(sweepMs)
	m["server.overhead_ms_p50"] = median(overheadMs)
	m["loadgen.late_ms_max"] = ms(ls.lateMax)
	m["loadgen.inflight_max"] = float64(ls.inflightMax)
	if u := median(split[0]); u > 0 {
		m["trace.overhead_pct"] = 100 * (median(split[1]) - u) / u
	}
	spans := clientSpans.All()
	m["client.submit_ms_p50"] = median(spanMs(spans, "client.submit"))
	m["client.wait_ms_p50"] = median(spanMs(spans, "client.wait"))
	var daemon []tracing.Span
	available := 1.0
	for _, id := range missIDs {
		tr, err := plain.Trace(ctx, id)
		if err != nil {
			fmt.Fprintf(p.log, "serve-mix: trace of %s: %v\n", id[:12], err)
			available = 0
			continue
		}
		daemon = append(daemon, tr.Spans...)
	}
	m["server.queue_wait_ms_p50"] = median(spanMs(daemon, "queue.wait"))
	m["fleet.dispatch_ms_p50"] = median(spanMs(daemon, "fleet.dispatch"))
	m["trace.split_available"] = available
	stitched := &spanLog{tr: tracing.NewTracer("perfbench", spanCapacity)}
	for _, s := range tracing.Stitch(spans, daemon) {
		stitched.tr.Record(s)
	}
	if err := stitched.write(filepath.Join(p.outDir, "traces"), fmt.Sprintf("serve-mix-seed%d", p.seed)); err != nil {
		fmt.Fprintf(p.log, "serve-mix: writing spans: %v\n", err)
	}
	return rep, nil
}

// account counts every request as an op and every request that
// errored, was refused, ended other than done or failed a check as a
// failed op; it returns the indices of the requests that succeeded.
func account(rep *report, seq []serveReq, outs []outcome, badHot map[string]bool) []int {
	var ok []int
	for i, o := range outs {
		rep.ops++
		r := seq[i]
		if o.err == nil && r.kind == kindDup && o.id != outs[r.pair].id {
			o.err = fmt.Errorf("request %d: duplicate joined job %s, primary is %s", i, o.id, outs[r.pair].id)
		}
		if o.err == nil && badHot[o.id] {
			o.err = fmt.Errorf("request %d: served a wrong hot artifact", i)
		}
		if o.err != nil {
			rep.failed++
			rep.fail("%v", o.err)
			continue
		}
		ok = append(ok, i)
	}
	return ok
}

// spanMs lists the durations of the spans with the given name.
func spanMs(spans []tracing.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
