package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	fsicp "fsicp"
	"fsicp/internal/interp"
	"fsicp/internal/progen"
	"fsicp/internal/report"
	"fsicp/internal/serve"
)

// serveClients is the closed loop's client count: one per core of the
// 2-core machine the benchmark was sized on, each owning one program.
const serveClients = 2

// clientProgram is client k's initial version: the 241-procedure shape
// of the repository's load benchmarks, with a distinct seed per client.
func clientProgram(k int) string {
	return progen.Generate(progen.Config{Seed: 20260805 + int64(k), Procs: 240, Globals: 12, AllowFloats: true, MaxStmts: 28})
}

// request is one step of a client's stream: an /update to a new
// version, an /analyze of the current version under another method, or
// a /query of the last report.
type request struct {
	kind   string // "update", "analyze" or "query"
	method string // analyze: "fi", "iter" or "returns" (FS with returns and refresh)
	src    string // the version the request carries or addresses
}

// stream generates client k's requests from the seed: about 80% updates
// with one progen.Edit each, 10% analyses rotating through the other
// methods, 10% queries.
type stream struct {
	rng     *rand.Rand
	cur     string
	methods int
}

func (s *stream) next() request {
	switch x := s.rng.Intn(10); {
	case x == 0:
		s.methods++
		return request{kind: "analyze", method: []string{"fi", "iter", "returns"}[s.methods%3], src: s.cur}
	case x == 1:
		return request{kind: "query", src: s.cur}
	default:
		s.cur = progen.Edit(s.cur, s.rng.Int63())
		return request{kind: "update", src: s.cur}
	}
}

// daemon is one in-process fsicpd: the serve handler with the daemon's
// defaults plus a fresh cache directory, on a loopback listener.
type daemon struct {
	srv   *serve.Server
	http  *http.Server
	url   string
	cache string
	done  chan error
}

func startDaemon(cache string) (*daemon, error) {
	if err := os.RemoveAll(cache); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{CacheDir: cache}), url: "http://" + ln.Addr().String(), cache: cache, done: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes its listener, waits for the serving
// goroutine, and removes the cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	if err := d.http.Shutdown(ctx); err != nil && derr == nil {
		derr = err
	}
	if err := <-d.done; err != http.ErrServerClosed && derr == nil {
		derr = err
	}
	if err := os.RemoveAll(d.cache); err != nil && derr == nil {
		derr = err
	}
	return derr
}

// call sends one request and returns its latency and decoded outcome:
// the served FS constants for an update, and whether the answer failed
// (non-200, shed to FI or degraded).
func (d *daemon) call(c *http.Client, name string, q request) (time.Duration, []constant, bool, error) {
	t0 := time.Now()
	var resp *http.Response
	var err error
	if q.kind == "query" {
		resp, err = c.Get(d.url + "/query?program=" + url.QueryEscape(name))
	} else {
		body := serve.Request{Program: name, Source: q.src}
		switch q.method {
		case "fi", "iter":
			body.Method = q.method
		case "returns":
			body.Returns, body.ReturnsRefresh = true, true
		}
		data, merr := json.Marshal(body)
		if merr != nil {
			return 0, nil, false, merr
		}
		resp, err = c.Post(d.url+"/"+q.kind, "application/json", bytes.NewReader(data))
	}
	if err != nil {
		return 0, nil, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, true, nil
	}
	if q.kind == "query" {
		return lat, nil, false, nil
	}
	var out serve.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, nil, false, err
	}
	return lat, facadeConstants(out.Report.Constants), out.Shed || len(out.Report.Degradations) > 0, nil
}

// served is one sampled update: the version sent and the constants the
// daemon answered with.
type served struct {
	src    string
	consts []constant
}

// clientLog is what one client's closed loop recorded.
type clientLog struct {
	reqs      []request
	latencies []float64
	failed    int
	samples   []served
}

// serveEdits is a closed loop of serveClients clients against an
// in-process daemon, each editing its own program.
func serveEdits(seed int64, dur time.Duration, traced bool) (*run, error) {
	r := &run{}
	names := make([]string, serveClients)
	initial := make([]string, serveClients)
	for k := range names {
		names[k] = fmt.Sprintf("client%d", k)
		initial[k] = clientProgram(k)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()

	// Set-up: daemon start plus each client's first cold /analyze,
	// three times; the last daemon serves the measured loop.
	var setups []float64
	var d *daemon
	fsConsts := 0
	for i := 0; i < 3; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(filepath.Join(stateDir, "serve-cache", fmt.Sprint(os.Getpid())))
		if err != nil {
			return nil, err
		}
		consts := make([][]constant, serveClients)
		errs := make([]error, serveClients)
		var wg sync.WaitGroup
		for k := range names {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var failed bool
				_, consts[k], failed, errs[k] = d.call(client, names[k], request{kind: "analyze", src: initial[k]})
				if errs[k] == nil && failed {
					errs[k] = fmt.Errorf("%s: initial /analyze failed", names[k])
				}
			}(k)
		}
		wg.Wait()
		setups = append(setups, time.Since(t0).Seconds())
		fsConsts = 0
		for k := range names {
			if errs[k] != nil {
				_ = d.stop() // the request's error is the one to report
				return nil, errs[k]
			}
			fsConsts += len(consts[k])
		}
	}

	loopDur := dur
	if traced {
		loopDur = dur / 2
	}
	logs := make([]*clientLog, serveClients)
	errs := make([]error, serveClients)
	runtime.GC()
	peak := startHeapPeak()
	a0, _ := readHeap()
	start := time.Now()
	var wg sync.WaitGroup
	for k := range names {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			log := &clientLog{}
			logs[k] = log
			st := &stream{rng: rand.New(rand.NewSource(seed*1000 + int64(k))), cur: initial[k]}
			sample := rand.New(rand.NewSource(seed*1000 + 500 + int64(k)))
			for time.Since(start) < loopDur {
				q := st.next()
				lat, consts, failed, err := d.call(client, names[k], q)
				if err != nil {
					errs[k] = err
					return
				}
				log.reqs = append(log.reqs, q)
				log.latencies = append(log.latencies, ms(lat))
				if failed {
					log.failed++
				} else if q.kind == "update" && len(log.samples) < 3 && sample.Intn(16) == 0 {
					log.samples = append(log.samples, served{q.src, consts})
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	a1, _ := readHeap()
	peakMiB := peak.Stop()
	if err := d.stop(); err != nil {
		return nil, err
	}
	var lats []float64
	for k, log := range logs {
		if errs[k] != nil {
			return nil, errs[k]
		}
		lats = append(lats, log.latencies...)
		r.failed += log.failed
	}
	r.attempted = len(lats)
	r.samples = lats
	r.e2e("setup_s", median(setups), "s")
	r.e2e("op_p50_ms", median(lats), "ms")
	r.e2e("ops_per_s", float64(len(lats))/wall.Seconds(), "1/s")
	r.e2e("peak_heap_mib", peakMiB, "MiB")
	r.e2e("alloc_mib", mib(a1-a0)/float64(len(lats)), "MiB")
	r.e2e("fs_constants", float64(fsConsts), "count")

	// Checks, after the loop: each sampled version's served constants
	// against a cold load of that version and against the interpreter.
	for k, log := range logs {
		for i, s := range log.samples {
			what := fmt.Sprintf("%s sample %d", names[k], i)
			p, err := fsicp.Load(names[k]+".mf", s.src)
			if err != nil {
				return nil, err
			}
			cold := facadeConstants(p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}).Constants())
			r.failAll(what+" vs cold load", checkSame(s.consts, cold))
			ctx, err := compileSource(names[k], s.src)
			if err != nil {
				return nil, err
			}
			ref := newRefTrace(interp.Run(ctx.Prog, interp.Options{MaxSteps: 10_000_000}))
			r.failAll(what+" vs interpreter", checkSound(s.consts, ref))
		}
	}

	if traced {
		if err := serveReplay(r, names, initial, logs, dur-loopDur); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// serveReplay replays the recorded request sequence in-process through
// the calls the daemon makes per request (Session.Update,
// Session.AnalyzeContext, report.Build and Encode, DiffConstants), with
// a span around each, plus a cold Load+Analyze of every updated
// version for comparison. Clients' requests interleave in turn; the
// replay stops when dur is used up.
func serveReplay(r *run, names, initial []string, logs []*clientLog, dur time.Duration) error {
	cache := filepath.Join(stateDir, "serve-cache", fmt.Sprintf("%d-replay", os.Getpid()))
	if err := os.RemoveAll(cache); err != nil {
		return err
	}
	defer os.RemoveAll(cache)
	rp := &replay{tr: newTracer(), cache: cache}
	for k := range names {
		s, err := fsicp.NewSessionWith(names[k]+".mf", initial[k], fsicp.LoadOptions{})
		if err != nil {
			return err
		}
		rp.sessions = append(rp.sessions, &replaySession{name: names[k], s: s, last: make(map[string][]fsicp.Constant)})
	}
	rt0 := readRuntime()
	start := time.Now()
	for j, more := 0, true; more; j++ {
		more = false
		for k, log := range logs {
			if j >= len(log.reqs) || time.Since(start) >= dur {
				continue
			}
			more = true
			if err := rp.do(rp.sessions[k], log.reqs[j]); err != nil {
				return err
			}
			rp.httpMs += log.latencies[j]
		}
	}
	rt1 := readRuntime()

	ops := float64(rp.ops)
	ls := rp.tr.layers()
	busy := func(name string) float64 { return float64(get(ls, name).SelfNs) / 1e6 }
	calls := busy("session.update") + busy("session.analyze") + busy("report")
	r.layer("session.update.busy_ms", div(busy("session.update"), ops), "ms")
	r.layer("session.analyze.busy_ms", div(busy("session.analyze"), ops), "ms")
	r.layer("report.busy_ms", div(busy("report"), ops), "ms")
	r.layer("serve.self_ms", div(rp.httpMs-calls, ops), "ms")
	r.layer("incr.reuse_ratio", div(float64(rp.reused), float64(rp.procs)), "ratio")
	r.layer("incr.hit_ratio", div(float64(rp.hits), float64(rp.lookups)), "ratio")
	r.layer("store.disk_hit_ratio", div(float64(rp.diskHits), float64(rp.diskLookups)), "ratio")
	r.layer("cold_ref.busy_ms", div(busy("cold_ref"), float64(rp.updates)), "ms")
	r.layer("incr.speedup_vs_cold", div(busy("cold_ref"), rp.updateMs), "ratio")
	gcLayers(r, rt0, rt1, math.Max(ops, 1))
	r.spans = rp.tr
	return nil
}

type replaySession struct {
	name string
	s    *fsicp.Session
	last map[string][]fsicp.Constant
}

// replay accumulates the counters of serveReplay.
type replay struct {
	tr       *tracer
	cache    string
	sessions []*replaySession

	ops, updates          int
	httpMs, updateMs      float64
	reused, procs         int
	hits, lookups         int
	diskHits, diskLookups int
}

// do replays one request as the daemon's compute path runs it.
func (rp *replay) do(s *replaySession, q request) error {
	rp.tr.nextOp()
	rp.ops++
	if q.kind == "query" {
		return nil
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, CacheDir: rp.cache, Timeout: 10 * time.Second}
	switch q.method {
	case "fi":
		cfg.Method = fsicp.FlowInsensitive
	case "iter":
		cfg.Method = fsicp.FlowSensitiveIterative
	case "returns":
		cfg.ReturnConstants, cfg.ReturnsRefresh = true, true
	}
	t0 := time.Now()
	var err error
	if q.kind == "update" {
		rp.tr.timed("session.update", func() { _, err = s.s.Update(q.src) })
		if err != nil {
			return err
		}
	}
	var a *fsicp.Analysis
	rp.tr.timed("session.analyze", func() { a, err = s.s.AnalyzeContext(context.Background(), cfg) })
	if err != nil {
		return err
	}
	incrMs := ms(time.Since(t0))
	key := fmt.Sprintf("%d|%t", cfg.Method, cfg.ReturnConstants)
	rp.tr.timed("report", func() {
		rep := report.Build(s.s.Program(), a, cfg)
		fsicp.DiffConstants(s.last[key], rep.Constants)
		s.last[key] = rep.Constants
		_, err = rep.Encode()
	})
	if err != nil {
		return err
	}
	if cfg.Method != fsicp.FlowInsensitive {
		reused, hits, misses := a.Incremental()
		rp.reused += reused
		rp.procs += len(s.s.Program().Procedures())
		rp.hits += hits
		rp.lookups += hits + misses
		cs := a.CacheStats()
		rp.diskHits += int(cs.DiskHits)
		rp.diskLookups += int(cs.DiskHits + cs.DiskMisses)
	}
	if q.kind != "update" {
		return nil
	}
	rp.updates++
	rp.updateMs += incrMs
	cold := cfg
	cold.CacheDir = ""
	rp.tr.timed("cold_ref", func() {
		var p *fsicp.Program
		if p, err = fsicp.Load(s.name+".mf", q.src); err == nil {
			p.Analyze(cold).Constants()
		}
	})
	return err
}

// div is a/b, or 0 when nothing was counted: a replay cut short by a
// very short run may see no request of some kind.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
