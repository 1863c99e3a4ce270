package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"filecule/internal/server"
	"filecule/internal/trace"
	"filecule/internal/workload"
)

// mixedParams fixes the mixed-http workload.
type mixedParams struct {
	rate      float64 // offered ops/s in the open loop (scrapes excluded)
	openShare float64 // share of the measuring time spent in the open loop; the closed loop gets the rest
	conns     int     // open-loop client connections, one request in flight each
	// closedConns is the closed loop's client connections. One: with two,
	// whether a read can reuse the last copy-on-write snapshot depends on
	// how the two connections' requests interleave, and the same replay's
	// work varied by ±15% from one replay to the next.
	closedConns int
	// closedInputs is how many independent inputs the closed loop replays
	// the traffic mix over, each into a fresh server.
	closedInputs int
	reps         int // set-up repetitions (median reported)
	// Op mix: shares of filecule, advise and summary reads; the rest are
	// observes. One /metrics scrape is due every second on top.
	fileculeShare, adviseShare, summaryShare float64
}

func defaultMixed() *mixedParams {
	return &mixedParams{
		rate:          300,
		openShare:     0.5,
		conns:         runtime.NumCPU(),
		closedConns:   1,
		closedInputs:  3,
		reps:          31,
		fileculeShare: 0.15,
		adviseShare:   0.10,
		summaryShare:  0.05,
	}
}

// xrootdJobsPerScale is how many jobs the xrootd adapter generates per unit
// of scale.
const xrootdJobsPerScale = 150000

func (p *mixedParams) kind(r *rand.Rand) opKind {
	switch x := r.Float64(); {
	case x < p.fileculeShare:
		return opFilecule
	case x < p.fileculeShare+p.adviseShare:
		return opAdvise
	case x < p.fileculeShare+p.adviseShare+p.summaryShare:
		return opSummary
	}
	return opObserve
}

func runMixedHTTP(e *env) (*result, error) {
	p := defaultMixed()
	openSec := e.seconds * p.openShare
	nOpen := int(p.rate * openSec)
	scale := float64(nOpen)*1.02/xrootdJobsPerScale + 0.001
	spec := fmt.Sprintf("xrootd,seed=%d,scale=%.4f", e.seed, scale)
	bin := filepath.Join(e.dir, "mixed.bin")
	if err := writeBinOnce(bin, spec); err != nil {
		return nil, err
	}
	res := &result{}
	res.info("input %s: open loop %d ops at %g/s over %d conns (%.0f%% observe, %.0f%% filecule, %.0f%% advise, %.0f%% summary, 1 scrape/s); closed loop over %d independent inputs",
		spec, nOpen, p.rate, p.conns, 100*(1-p.fileculeShare-p.adviseShare-p.summaryShare),
		100*p.fileculeShare, 100*p.adviseShare, 100*p.summaryShare, p.closedInputs)

	var (
		setups, loads []float64
		tr            *trace.Trace
		l             net.Listener
	)
	for rep := 0; rep < p.reps; rep++ {
		if l != nil {
			l.Close()
		}
		runtime.GC() // every repetition starts from a settled heap
		start := time.Now()
		var err error
		tr, err = workload.Load("file,path=" + bin)
		if err != nil {
			return nil, err
		}
		loaded := time.Now()
		l, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, loaded.Sub(start).Seconds()*1e3)
	}
	res.add("setup_s", "s", median(setups))
	res.layer("trace.load_ms", median(loads))
	if len(tr.Jobs) < nOpen {
		l.Close()
		return nil, fmt.Errorf("%s: %d jobs, need %d: %w", spec, len(tr.Jobs), nOpen, errNoJobs)
	}
	jobs := jobFiles(tr)
	catalog := &trace.Trace{Files: tr.Files}
	var totalBytes int64
	for _, f := range tr.Files {
		totalBytes += f.Size
	}
	capacity := max(totalBytes/20, 1<<20) // a site cache holding 5% of the catalog
	planned, _ := planOps(rand.New(rand.NewSource(e.seed)), nOpen, startOrder(tr), jobs, p.kind)
	ops, due := addScrapes(planned, p.rate)

	// The open loop.
	rig := serveHTTP(tr.Files, l, e.traced)
	req := &httpRequester{addr: rig.addr, jobs: jobs, capacity: capacity}
	heap := startHeapSampler()
	open := newSchedule(ops, due)
	errOpen := runWorkers(open, p.conns, req.dial)
	ol := open.collect()
	res.latencies(ol.all, ol.observe, ol.read)
	res.layer("loadgen.late_p99_us", summarize(ol.late).P99)
	servedJSON, err := fetch(rig.addr, "/v1/partition")
	if err == nil {
		err = samePartition(servedJSON, tr, open.ackedJobs(nil), catalog)
	}
	res.check("served partition == core.Identify over the acknowledged jobs", err)
	res.check("server shutdown", rig.stop())

	// Saturation: the same traffic mix without the scrapes, replayed
	// closed-loop over closedInputs independent inputs, so one seed's
	// quirks weigh 1/closedInputs. Each replay goes into a fresh server
	// from a settled heap; the inputs are replayed in turn, in whole rounds
	// while the rest of the measuring time lasts, and the metric is the
	// median replay's rate, which a neighbour slowing one replay does not
	// move.
	type closedInput struct {
		tr   *trace.Trace
		jobs [][]trace.FileID
		ops  []op
		want identified
	}
	inputs := make([]closedInput, p.closedInputs)
	for k := range inputs {
		seed := e.seed*int64(p.closedInputs) + int64(k)
		ktr, err := loadInput(fmt.Sprintf("xrootd,seed=%d,scale=%.4f", seed, scale), filepath.Join(e.dir, fmt.Sprintf("mixed-closed-%d.bin", k)), nOpen)
		if err != nil {
			return nil, err
		}
		kjobs := jobFiles(ktr)
		kops, _ := planOps(rand.New(rand.NewSource(seed)), nOpen, startOrder(ktr), kjobs, p.kind)
		inputs[k] = closedInput{tr: ktr, jobs: kjobs, ops: kops}
	}
	var (
		rates    []float64
		cl       phaseStats
		errSat   error
		attempts = ol.attempted
		failures = ol.failed
		budget   = time.Duration(e.seconds * (1 - p.openShare) * float64(time.Second))
		begun    = time.Now()
		round    time.Duration
	)
	for r := 0; r == 0 || time.Since(begun)+round <= budget; r++ {
		roundStart := time.Now()
		for k := range inputs {
			in := &inputs[k]
			sl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			sat := serveHTTP(in.tr.Files, sl, false)
			satReq := &httpRequester{addr: sat.addr, jobs: in.jobs, capacity: capacity}
			runtime.GC()
			closed := newSchedule(in.ops, nil)
			errSat = errors.Join(errSat, runWorkers(closed, p.closedConns, satReq.dial))
			cl = closed.collect()
			attempts, failures = attempts+cl.attempted, failures+cl.failed
			rates = append(rates, float64(cl.attempted-cl.failed)/cl.elapsed.Seconds())
			satJSON, err := fetch(sat.addr, "/v1/partition")
			if err == nil {
				err = in.want.check(satJSON, in.tr, closed.ackedJobs(nil), &trace.Trace{Files: in.tr.Files})
			}
			res.check(fmt.Sprintf("saturated server %d.%d: partition == core.Identify over its acknowledged jobs", r, k), err)
			res.check(fmt.Sprintf("saturated server %d.%d: shutdown", r, k), sat.stop())
		}
		round = time.Since(roundStart)
	}
	res.layer("runtime.heap_peak_mb", heap.finish())
	res.addN("max_ops_per_s", "1/s", median(rates), len(rates))
	res.Attempted, res.Failed = attempts, failures
	res.info("open loop: %d ops, %d failed, %.2fs; closed loop: %d replays of %d ops over %d inputs on %d conn at %.0f ops/s",
		ol.attempted, ol.failed, ol.elapsed.Seconds(), len(rates), cl.attempted, p.closedInputs, p.closedConns, rates)
	res.check("load generation", errors.Join(errOpen, errSat))

	if e.traced {
		hp, probe := rig.hp, snapshotConnStats(&rig.cs)
		reqs := float64(max(ol.attempted, 1))
		for _, route := range []string{"observe", "filecule", "advise", "summary"} {
			res.layer("server.handler_us."+route, hp.meanUs(route))
		}
		res.layer("server.scrape_ms", hp.meanUs("scrape")/1e3)
		res.layer("server.conn_writes_per_req", float64(probe.writes)/reqs)
		var handlerNs, n int64
		for _, rs := range hp.routes {
			handlerNs += rs.ns.Load()
			n += rs.n.Load()
		}
		// Round trips against handler time: the difference is HTTP framing,
		// connection handling and scheduling outside the handlers.
		res.layer("server.unattributed_us", mean(ol.rtt)-float64(handlerNs)/float64(max(n, 1))/1e3)
		replayLayers(res, replayOps(open), jobs, catalog, capacity)
	}
	return res, nil
}

// httpRig is one in-memory filecule-serve instance serving HTTP/JSON.
type httpRig struct {
	addr   string
	hs     *http.Server
	hp     *handlerProbe
	cs     connStats
	served chan error
}

// serveHTTP serves server.New's Handler on l with the timeouts server.Run
// uses by default; traced puts the probes around the handler and listener.
func serveHTTP(catalog []trace.File, l net.Listener, traced bool) *httpRig {
	r := &httpRig{addr: l.Addr().String(), served: make(chan error, 1)}
	var handler http.Handler = server.New(server.Config{Catalog: catalog}).Handler()
	if traced {
		r.hp = newHandlerProbe(handler)
		handler = r.hp
		l = probeListener{Listener: l, st: &r.cs}
	}
	r.hs = &http.Server{Handler: handler, ReadTimeout: 30 * time.Second, WriteTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second}
	go func() { r.served <- r.hs.Serve(l) }()
	return r
}

// stop shuts the server down.
func (r *httpRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// addScrapes inserts one scrape op at every whole second of an open-loop
// schedule of ops at rate per second and returns the ops with due times.
// Inserting shifts later indices, so read dependencies are remapped.
func addScrapes(ops []op, rate float64) ([]op, []int64) {
	base := uniformDue(len(ops), rate)
	out := make([]op, 0, len(ops)+len(ops)/int(rate)+1)
	due := make([]int64, 0, cap(out))
	remap := make([]int32, len(ops))
	next := int64(time.Second)
	for i, o := range ops {
		for base[i] >= next {
			out = append(out, op{kind: opScrape, dep: -1})
			due = append(due, next)
			next += int64(time.Second)
		}
		remap[i] = int32(len(out))
		if o.dep >= 0 {
			o.dep = remap[o.dep]
		}
		out = append(out, o)
		due = append(due, base[i])
	}
	return out, due
}

// fetch GETs path from the server at addr over a connection of its own.
func fetch(addr, path string) ([]byte, error) {
	hc := &http.Client{Timeout: wireTimeout, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

// loadInput generates spec into path (once per run) and loads it, checking
// it has at least need jobs.
func loadInput(spec, path string, need int) (*trace.Trace, error) {
	if err := writeBinOnce(path, spec); err != nil {
		return nil, err
	}
	t, err := workload.Load("file,path=" + path)
	if err != nil {
		return nil, err
	}
	if len(t.Jobs) < need {
		return nil, fmt.Errorf("%s: %d jobs, need %d: %w", spec, len(t.Jobs), need, errNoJobs)
	}
	return t, nil
}
