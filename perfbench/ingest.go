package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/server"
	"filecule/internal/trace"
	"filecule/internal/wire"
	"filecule/internal/workload"
)

// ingestParams fixes the ingest-wire workload.
type ingestParams struct {
	rate      float64 // offered ops/s in the open loop
	openShare float64 // share of the measuring time spent in the open loop; the closed loop replays its ops in the rest
	// openSegments is how many consecutive parts the open loop is sent in,
	// each over new connections.
	openSegments int
	conns        int // client connections (and sender goroutines)
	window       int // closed-loop requests in flight per connection
	// minClosedReps is the fewest fresh servers the closed loop replays
	// the open loop's ops into (median reported).
	minClosedReps int
	ckptEvery     int // checkpoint at every multiple of this many acked jobs
	tail          int // jobs observed after the final checkpoint
	reps          int // set-up and recovery repetitions (median reported)
	// wrap, when set, decorates the served wire.Backend (tests use it).
	wrap func(wire.Backend) wire.Backend
}

func defaultIngest() *ingestParams {
	return &ingestParams{
		rate:          8000,
		openShare:     0.6,
		openSegments:  4,
		conns:         runtime.NumCPU(),
		window:        32,
		minClosedReps: 3,
		ckptEvery:     16000,
		tail:          10000,
		reps:          5,
	}
}

// dzeroJobsPerScale is how many jobs the dzero adapter generates per unit
// of scale (11,775 at 0.05).
const dzeroJobsPerScale = 235500

// readLag bounds how far back a read looks for the observe it targets:
// between readLag and 4*readLag ops earlier.
const readLag = 256

func runIngestWire(e *env) (*result, error) {
	p := e.ingest
	if p == nil {
		p = defaultIngest()
	}
	openSec := e.seconds * p.openShare
	nOpen := int(p.rate * openSec)
	needJobs := nOpen + p.tail
	scale := float64(needJobs)*1.02/dzeroJobsPerScale + 0.001
	spec := fmt.Sprintf("dzero,seed=%d,scale=%.4f", e.seed, scale)
	bin := filepath.Join(e.dir, "ingest.bin")
	if err := writeBinOnce(bin, spec); err != nil {
		return nil, err
	}

	res := &result{}
	res.info("input %s: open loop %d single-job observes at %g/s over %d conns in %d parts, checkpoint every %d acked jobs, WAL tail %d jobs; closed loop replays them into a fresh server, %d conns x window %d",
		spec, nOpen, p.rate, p.conns, p.openSegments, p.ckptEvery, p.tail, p.conns, p.window)

	// Set-up: what filecule-serve does before it can take a request.
	var (
		setups, loads, opens []float64
		tr                   *trace.Trace
		rig                  *wireRig
	)
	for rep := 0; rep < p.reps; rep++ {
		if rig != nil {
			rig.d.Close()
			rig.l.Close()
		}
		dir, err := e.stateDir(fmt.Sprintf("state-%d", rep))
		if err != nil {
			return nil, err
		}
		runtime.GC() // every repetition starts from a settled heap
		start := time.Now()
		tr, err = workload.Load("file,path=" + bin)
		if err != nil {
			return nil, err
		}
		loaded := time.Now()
		rig, err = openWireRig(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, loaded.Sub(start).Seconds()*1e3)
		opens = append(opens, rig.openMs)
	}
	res.add("setup_s", "s", median(setups))
	res.layer("trace.load_ms", median(loads))
	res.layer("durable.open_ms", median(opens))
	if len(tr.Jobs) < needJobs {
		rig.d.Close()
		rig.l.Close()
		return nil, fmt.Errorf("%s: %d jobs, need %d: %w", spec, len(tr.Jobs), needJobs, errNoJobs)
	}
	jobs := jobFiles(tr)
	catalog := &trace.Trace{Files: tr.Files}
	order := startOrder(tr)
	ops, used := planOps(rand.New(rand.NewSource(e.seed)), nOpen, order, jobs, func(*rand.Rand) opKind { return opObserve })
	tail := order[used : used+p.tail]

	// The open loop, with checkpoints at fixed acknowledged-job marks.
	rig.serve(tr.Files, p.wrap, e.traced)
	heap := startHeapSampler()
	ck := startCheckpointer(rig.d, p.ckptEvery, e.traced)
	// The stream is sent in openSegments consecutive parts, each over
	// freshly dialled connections: the latency of parts of one run sent
	// over different connections differed by up to 15%, so several parts
	// keep one pair of connections from setting the figure.
	var (
		segs    []*schedule
		errOpen error
		acked0  int64
	)
	for k := 0; k < p.openSegments; k++ {
		part := ops[k*len(ops)/p.openSegments : (k+1)*len(ops)/p.openSegments]
		seg := newSchedule(part, uniformDue(len(part), p.rate))
		base := acked0
		seg.onAck = func(n int64) { ck.acked(base + n) }
		errOpen = errors.Join(errOpen, runWire(seg, rig.addr(), p.conns, 1024, jobs))
		acked0 += seg.acked.Load()
		segs = append(segs, seg)
	}
	ckStats, errCk := ck.stop()
	ol := collectAll(segs)
	res.latencies(ol.all, ol.observe, ol.read)
	res.info("observes of jobs without input files: %d, p50 %.6g us", len(ol.emptyObserve), windowed(ol.emptyObserve, 0.50, p50Window))
	res.layer("loadgen.late_p99_us", summarize(ol.late).P99)
	openProbe := snapshotConnStats(&rig.cs)

	// The WAL tail: a final checkpoint, then a fixed number of jobs that
	// recovery must replay.
	var acked []int32
	for _, seg := range segs {
		acked = seg.ackedJobs(acked)
	}
	tailErr := rig.d.Checkpoint()
	if tailErr == nil {
		tailJobs := make([][]trace.FileID, len(tail))
		for i, j := range tail {
			tailJobs[i] = jobs[j]
		}
		tailErr = sendTail(rig.addr(), tailJobs)
	}
	if tailErr == nil {
		acked = append(acked, tail...)
	}
	res.check("WAL tail", tailErr)
	servedJSON, err := rig.stop(catalog)
	if err != nil {
		return nil, err
	}
	res.check("served partition == core.Identify over the acknowledged jobs", samePartition(servedJSON, tr, acked, catalog))
	recs, replayed := reopen(res, rig.dir, p.reps, servedJSON, catalog)
	res.info("recovery_s %.6g s (median of %d reopens, %d WAL jobs replayed)", median(recs)/1e3, len(recs), replayed)

	// Saturation: the same observes, replayed closed-loop into a fresh
	// server with no checkpoints, from a settled heap, while the rest of the
	// measuring time lasts (at least minClosedReps replays). The metric is
	// the median replay's rate, which a neighbour slowing one replay does
	// not move.
	var (
		rates    []float64
		cl       phaseStats
		sat      *wireRig
		errSat   error
		attempts = ol.attempted
		failures = ol.failed
		satWant  identified
		budget   = time.Duration(e.seconds * (1 - p.openShare) * float64(time.Second))
		begun    = time.Now()
		last     time.Duration
	)
	for rep := 0; rep < p.minClosedReps || time.Since(begun)+last <= budget; rep++ {
		replayStart := time.Now()
		dir, err := e.stateDir(fmt.Sprintf("state-closed-%d", rep))
		if err != nil {
			return nil, err
		}
		if sat, err = openWireRig(dir); err != nil {
			return nil, err
		}
		sat.serve(tr.Files, p.wrap, e.traced)
		runtime.GC()
		closed := newSchedule(ops, nil)
		errSat = errors.Join(errSat, runWire(closed, sat.addr(), p.conns, p.window, jobs))
		cl = closed.collect()
		attempts, failures = attempts+cl.attempted, failures+cl.failed
		rates = append(rates, float64(cl.attempted-cl.failed)/cl.elapsed.Seconds())
		satJSON, err := sat.stop(catalog)
		if err != nil {
			return nil, err
		}
		res.check(fmt.Sprintf("saturated server %d: partition == core.Identify over its acknowledged jobs", rep), satWant.check(satJSON, tr, closed.ackedJobs(nil), catalog))
		last = time.Since(replayStart)
	}
	res.layer("runtime.heap_peak_mb", heap.finish())
	res.addN("max_ops_per_s", "1/s", median(rates), len(rates))
	res.Attempted, res.Failed = attempts, failures
	res.info("open loop: %d ops, %d failed, %.2fs, %d checkpoints; closed loop: %d replays of %d ops at %.0f ops/s",
		ol.attempted, ol.failed, ol.elapsed.Seconds(), ckStats.n, len(rates), cl.attempted, rates)
	res.check("load generation", errors.Join(errOpen, errCk, errSat))

	if e.traced {
		res.layer("durable.recovery_ms", median(recs))
		res.layer("durable.replayed_jobs", float64(replayed))
		res.layer("durable.state_bytes_per_job", float64(rig.stateBytes)/float64(len(acked)))
		res.layer("durable.checkpoint_ms", ckStats.meanMs())
		res.layer("durable.checkpoint_reused_ratio", ckStats.reusedRatio())
		res.layer("durable.sync_lag_jobs", ckStats.meanLag())
		backendUs := rig.bp.medianUs()
		res.layer("durable.observe_us", backendUs)
		writeUs := float64(openProbe.writeNs) / float64(max(openProbe.writes, 1)) / 1e3
		rtt := median(ol.rtt)
		res.layer("wire.client_rtt_us", rtt)
		res.layer("wire.conn_write_us", writeUs)
		res.layer("wire.unattributed_us", rtt-backendUs-writeUs)
		// Socket calls and bytes per request at saturation, where batching
		// them is what the throughput depends on.
		satProbe := snapshotConnStats(&sat.cs)
		reqs := float64(max(cl.attempted, 1))
		res.layer("wire.conn_reads_per_req", float64(satProbe.reads)/reqs)
		res.layer("wire.conn_writes_per_req", float64(satProbe.writes)/reqs)
		res.layer("wire.bytes_in_per_job", float64(satProbe.bytesIn)/reqs)
		res.layer("wire.bytes_out_per_req", float64(satProbe.bytesOut)/reqs)
		replayLayers(res, replayOps(segs...), jobs, catalog, 0)
	}
	return res, nil
}

// wireRig is one filecule-serve instance as ingest-wire runs it: a durable
// engine on local disk with the production 50ms group commit, serving
// filecule-wire/v1 on a loopback listener.
type wireRig struct {
	dir    string
	d      *durable.Engine
	l      net.Listener
	openMs float64
	srv    *server.Server
	bp     *backendProbe
	cs     connStats
	cancel context.CancelFunc
	served chan error
	// stateBytes is the state directory's size once the server stopped.
	stateBytes int64
}

func openWireRig(dir string) (*wireRig, error) {
	start := time.Now()
	d, err := durable.Open(durable.Options{Dir: dir, SyncInterval: 50 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	openMs := time.Since(start).Seconds() * 1e3
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	return &wireRig{dir: dir, d: d, l: l, openMs: openMs}, nil
}

func (r *wireRig) addr() string { return r.l.Addr().String() }

// serve starts the wire server; wrap, when set, decorates its backend, and
// traced puts the probes around the backend and the listener.
func (r *wireRig) serve(catalog []trace.File, wrap func(wire.Backend) wire.Backend, traced bool) {
	r.srv = server.New(server.Config{Catalog: catalog, Durable: r.d})
	ws := r.srv.WireServer()
	if wrap != nil {
		ws.Backend = wrap(ws.Backend)
	}
	l := r.l
	if traced {
		r.bp = &backendProbe{Backend: ws.Backend}
		ws.Backend = r.bp
		l = probeListener{Listener: l, st: &r.cs}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.served = cancel, make(chan error, 1)
	go func() { r.served <- ws.Serve(ctx, l) }()
}

// stop returns the served partition, then shuts the server down and closes
// the state directory.
func (r *wireRig) stop(catalog *trace.Trace) ([]byte, error) {
	m := r.srv.Monitor()
	served, err := server.PartitionJSON(m.Snapshot(), m.Observed(), catalog)
	r.cancel()
	err = errors.Join(err, <-r.served, r.d.Close())
	r.stateBytes = dirBytes(r.dir)
	r.srv, r.d = nil, nil // let the engine go before the next server starts
	return served, err
}

// reopen times durable.Open on a closed state directory reps times and
// checks the first reopen against the served partition. It returns the
// open times in ms and the WAL jobs recovery replayed.
func reopen(res *result, dir string, reps int, served []byte, catalog *trace.Trace) ([]float64, int64) {
	var recs []float64
	var replayed int64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		d, err := durable.Open(durable.Options{Dir: dir, SyncInterval: 50 * time.Millisecond})
		if err != nil {
			res.check("recovery", err)
			break
		}
		recs = append(recs, time.Since(start).Seconds()*1e3)
		if rep == 0 {
			replayed = d.Recovery().ReplayedJobs
			got, err := server.PartitionJSON(d.Core().Snapshot(), d.Core().Observed(), catalog)
			if err == nil && string(got) != string(served) {
				err = fmt.Errorf("recovered partition (%d bytes) differs from the served one (%d bytes)", len(got), len(served))
			}
			res.check("reopened state == served partition", err)
		}
		if err := d.Close(); err != nil {
			res.check("recovery close", err)
			break
		}
	}
	return recs, replayed
}

// planOps draws n ops. Observes take the jobs in the given order; a read
// targets the first input file of a non-empty job observed between readLag
// and 4*readLag ops earlier (or the nearest one, early on) and depends on
// that observe. It returns the ops and how many jobs of order they use.
func planOps(rng *rand.Rand, n int, order []int32, jobs [][]trace.FileID, kind func(*rand.Rand) opKind) ([]op, int) {
	ops := make([]op, 0, n)
	var targets []int32 // op indices of observes of non-empty jobs
	used := 0
	for i := 0; i < n; i++ {
		k := kind(rng)
		if k == opObserve || len(targets) == 0 {
			job := order[used]
			empty := len(jobs[job]) == 0
			if !empty {
				targets = append(targets, int32(i))
			}
			ops = append(ops, op{kind: opObserve, job: job, dep: -1, empty: empty})
			used++
			continue
		}
		back := readLag + rng.Intn(3*readLag)
		dep := targets[max(0, len(targets)-1-back)]
		ops = append(ops, op{kind: k, job: ops[dep].job, dep: dep})
	}
	return ops, used
}

// startOrder returns the trace's job indices in the order the jobs
// started, which is the order a station streams them in. A generated
// trace need not be in that order: the dzero adapter emits every job with
// input files first and the half without any after them.
func startOrder(t *trace.Trace) []int32 {
	order := make([]int32, len(t.Jobs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return t.Jobs[order[a]].Start.Before(t.Jobs[order[b]].Start) })
	return order
}

// uniformDue spaces n ops evenly at rate per second.
func uniformDue(n int, rate float64) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(float64(i) * 1e9 / rate)
	}
	return due
}

// sendTail observes jobs synchronously in batches over one connection.
func sendTail(addr string, jobs [][]trace.FileID) error {
	c, err := wire.Dial(addr, wireTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	for len(jobs) > 0 {
		n := min(len(jobs), 500)
		if _, err := c.Batch(jobs[:n]); err != nil {
			return err
		}
		jobs = jobs[n:]
	}
	return nil
}

// checkpointer calls Checkpoint at fixed acknowledged-job marks and, when
// traced, samples the WAL sync lag.
type checkpointer struct {
	every int64
	kick  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
	st    ckptStats
	err   error
}

type ckptStats struct {
	n                int
	ms               float64
	groups, reused   int
	lagSum, lagCount float64
}

func (s ckptStats) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return s.ms / float64(s.n)
}

func (s ckptStats) reusedRatio() float64 {
	if s.groups == 0 {
		return 0
	}
	return float64(s.reused) / float64(s.groups)
}

func (s ckptStats) meanLag() float64 {
	if s.lagCount == 0 {
		return 0
	}
	return s.lagSum / s.lagCount
}

func startCheckpointer(d *durable.Engine, every int, sampleLag bool) *checkpointer {
	c := &checkpointer{every: int64(every), kick: make(chan struct{}, 1), done: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		var lag <-chan time.Time
		if sampleLag {
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			lag = t.C
		}
		for {
			select {
			case <-c.done:
				return
			case <-lag:
				st := d.Stats()
				c.st.lagSum += float64(st.WALAppended - st.WALSynced)
				c.st.lagCount++
			case <-c.kick:
				if c.err != nil {
					continue
				}
				start := time.Now()
				c.err = d.Checkpoint()
				c.st.ms += time.Since(start).Seconds() * 1e3
				c.st.n++
				st := d.Stats()
				c.st.groups += st.LastGroups
				c.st.reused += st.LastReused
			}
		}
	}()
	return c
}

// acked is the schedule's onAck hook: it wakes the checkpointer at every
// mark.
func (c *checkpointer) acked(n int64) {
	if n%c.every == 0 {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

func (c *checkpointer) stop() (ckptStats, error) {
	close(c.done)
	c.wg.Wait()
	return c.st, c.err
}

type connCounts struct{ reads, writes, bytesIn, bytesOut, writeNs int64 }

func snapshotConnStats(cs *connStats) connCounts {
	return connCounts{cs.reads.Load(), cs.writes.Load(), cs.bytesIn.Load(), cs.bytesOut.Load(), cs.writeNs.Load()}
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
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

// jobFiles returns each job's file list, indexed by job.
func jobFiles(t *trace.Trace) [][]trace.FileID {
	out := make([][]trace.FileID, len(t.Jobs))
	for i := range t.Jobs {
		out[i] = t.Jobs[i].Files
	}
	return out
}

// samePartition checks served against core.Identify over exactly the
// acknowledged jobs.
func samePartition(served []byte, t *trace.Trace, acked []int32, catalog *trace.Trace) error {
	return new(identified).check(served, t, acked, catalog)
}

// identified holds core.Identify's partition over one set of acknowledged
// jobs, so that replays which acknowledged the same jobs are checked
// without identifying them again.
type identified struct {
	acked []int32
	want  []byte
}

// check checks served against core.Identify over exactly the acknowledged
// jobs.
func (x *identified) check(served []byte, t *trace.Trace, acked []int32, catalog *trace.Trace) error {
	if x.want == nil || !slices.Equal(x.acked, acked) {
		ids := make([]trace.JobID, len(acked))
		for i, j := range acked {
			if t.Jobs[j].ID != trace.JobID(j) {
				return fmt.Errorf("job %d has ID %d", j, t.Jobs[j].ID)
			}
			ids[i] = trace.JobID(j)
		}
		want, err := server.PartitionJSON(core.IdentifyJobs(t, ids), int64(len(ids)), catalog)
		if err != nil {
			return err
		}
		x.acked, x.want = acked, want
	}
	if string(x.want) != string(served) {
		return fmt.Errorf("served partition (%d bytes) differs from core.Identify over %d acknowledged jobs (%d bytes)", len(served), len(acked), len(x.want))
	}
	return nil
}

// writeBinOnce generates the workload spec and writes it as filecule-bin/v1
// to path, unless an earlier run of this process already did.
func writeBinOnce(path, spec string) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	src, err := workload.Open(spec)
	if err != nil {
		return err
	}
	defer src.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewBinWriter(f, src.Files(), src.Users(), src.Sites())
	if err == nil {
		_, err = trace.CopySource(w, src)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
