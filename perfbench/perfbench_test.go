package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filecule/internal/trace"
	"filecule/internal/wire"
)

// stallingBackend answers every op at once, except that the op at stallAt
// holds a lock every op needs for stall — a backend that stalls once.
type stallingBackend struct {
	mu      sync.Mutex
	stallAt int32
	stall   time.Duration
}

func (b *stallingBackend) dial() (worker, error) { return b, nil }
func (b *stallingBackend) Close() error          { return nil }

func (b *stallingBackend) do(o op) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if o.job == b.stallAt {
		time.Sleep(b.stall)
	}
	return nil
}

func openLoop(n int, rate float64) *schedule {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opObserve, job: int32(i), dep: -1}
	}
	return newSchedule(ops, uniformDue(n, rate))
}

func p99(vals []float64) float64 { return summarize(append([]float64(nil), vals...)).P99 }

// A stall must show in later requests' latency when it is timed from the
// due time, and in how late the generator ran; timed from the send it
// hides behind the one stalled request per connection.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		n     = 1000
		rate  = 2000
		stall = 60 * time.Millisecond
	)
	calm := openLoop(n, rate)
	if err := runWorkers(calm, 2, (&stallingBackend{stallAt: -1}).dial); err != nil {
		t.Fatal(err)
	}
	stalled := openLoop(n, rate)
	if err := runWorkers(stalled, 2, (&stallingBackend{stallAt: 100, stall: stall}).dial); err != nil {
		t.Fatal(err)
	}
	c, s := calm.collect(), stalled.collect()
	if s.failed != 0 || c.failed != 0 {
		t.Fatalf("failed ops: calm %d, stalled %d", c.failed, s.failed)
	}
	limit := float64(stall/time.Microsecond) / 3
	if got := p99(c.observe); got > limit {
		t.Skipf("machine too busy: calm p99 %.0fus already over %.0fus", got, limit)
	}
	if got := p99(s.observe); got < limit {
		t.Errorf("stalled p99 from due time = %.0fus, want >= %.0fus", got, limit)
	}
	if got := p99(s.late); got < limit {
		t.Errorf("stalled late p99 = %.0fus, want >= %.0fus", got, limit)
	}
	if from, send := p99(s.observe), p99(s.rtt); send > from/2 {
		t.Errorf("p99 from send %.0fus is not well below p99 from due %.0fus: the send-timed view should hide the stall", send, from)
	}
}

// The pipelined wire generator times from the due time too: a backend that
// stalls once raises the tail of the requests queued behind it.
func TestWireOpenLoopCountsStall(t *testing.T) {
	p := smallIngest()
	p.rate, p.reps, p.tail = 2000, 1, 100
	var calls atomic.Int64
	p.wrap = func(b wire.Backend) wire.Backend {
		return &delayBackend{Backend: b, calls: &calls, once: 50, delay: 80 * time.Millisecond, sleep: true}
	}
	e := &env{seed: 3, seconds: 1, dir: t.TempDir(), ingest: p}
	res, err := runIngestWire(e)
	if err != nil {
		t.Fatal(err)
	}
	mustBeCorrect(t, res)
	// At 2000/s an 80ms stall queues ~160 of the first 1000 open-loop
	// observes behind it, so that window's p99 is tens of milliseconds.
	if got := res.e2e("observe_p99_us"); got < 20000 {
		t.Errorf("observe_p99_us = %.0fus after an 80ms backend stall, want >= 20000us", got)
	}
}

// A decorator that busy-waits a fixed time in wire.Backend.Observe must
// raise ingest-wire's observe_p50_us and durable.observe_us by about that
// time, and leave sweep-fig10 untouched: attribution by construction.
func TestObserveDelayIsAttributed(t *testing.T) {
	const delay = 400 * time.Microsecond
	run := func(wrap func(wire.Backend) wire.Backend) *result {
		p := smallIngest()
		p.wrap = wrap
		e := &env{seed: 5, seconds: 2, dir: t.TempDir(), ingest: p, traced: true}
		res, err := runIngestWire(e)
		if err != nil {
			t.Fatal(err)
		}
		mustBeCorrect(t, res)
		return res
	}
	var calls atomic.Int64
	base := run(nil)
	slow := run(func(b wire.Backend) wire.Backend {
		return &delayBackend{Backend: b, calls: &calls, delay: delay}
	})
	if calls.Load() == 0 {
		t.Fatal("decorator never called")
	}
	want := float64(delay / time.Microsecond)
	for _, m := range []struct {
		name       string
		base, slow float64
		lo, hi     float64
	}{
		{"observe_p50_us", base.e2e("observe_p50_us"), slow.e2e("observe_p50_us"), 0.6, 2.0},
		{"durable.observe_us", base.Layers["durable.observe_us"], slow.Layers["durable.observe_us"], 0.8, 1.5},
	} {
		if d := m.slow - m.base; d < m.lo*want || d > m.hi*want {
			t.Errorf("%s rose by %.0fus (%.0f -> %.0f), want about %.0fus", m.name, d, m.base, m.slow, want)
		}
	}

	// sweep-fig10 serves no wire requests: the decorator stays idle.
	before := calls.Load()
	e := &env{seed: 5, seconds: 0.1, dir: t.TempDir(), sweep: &sweepParams{scale: 0.01, traces: 1, reps: 1},
		ingest: &ingestParams{wrap: func(b wire.Backend) wire.Backend {
			return &delayBackend{Backend: b, calls: &calls, delay: delay}
		}}}
	res, err := runSweepFig10(e)
	if err != nil {
		t.Fatal(err)
	}
	mustBeCorrect(t, res)
	if calls.Load() != before {
		t.Errorf("sweep-fig10 made %d wire observes", calls.Load()-before)
	}
}

// smallIngest is ingest-wire shrunk to run in a few seconds.
func smallIngest() *ingestParams {
	p := defaultIngest()
	p.rate = 500
	p.ckptEvery = 400
	p.tail = 200
	p.reps = 1
	return p
}

// delayBackend delays Observe: by busy-waiting (the attribution probe), or
// by sleeping once on call number once (a stall).
type delayBackend struct {
	wire.Backend
	calls *atomic.Int64
	delay time.Duration
	once  int64
	sleep bool
}

func (b *delayBackend) Observe(files []trace.FileID) error {
	n := b.calls.Add(1)
	switch {
	case b.sleep && n == b.once:
		time.Sleep(b.delay)
	case !b.sleep:
		for end := time.Now().Add(b.delay); time.Now().Before(end); {
		}
	}
	return b.Backend.Observe(files)
}

func mustBeCorrect(t *testing.T, r *result) {
	t.Helper()
	for _, c := range r.Checks {
		if c.Err != nil {
			t.Errorf("check %s: %v", c.Name, c.Err)
		}
	}
}

func TestSummaryPercentiles(t *testing.T) {
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	vals[7] = math.Inf(1) // a failed op is slower than every success
	s := summarize(append([]float64(nil), vals...))
	if s.N != 2000 || s.P50 != 1001 || s.P99 != 1981 {
		t.Errorf("summary = %+v, want n=2000 p50=1001 p99=1981", s)
	}
	if math.Abs(s.TopQ-0.995) > 1e-12 || s.Top != 1991 {
		t.Errorf("top percentile = p%g %g, want p99.5 1991 (ten samples beyond)", 100*s.TopQ, s.Top)
	}
	if got := windowed(vals, 0.99, p99Window); got != 1490.5 {
		t.Errorf("windowed p99 = %g, want the median of the window p99s 991 and 1990", got)
	}
}

// A windowed p50 stays put when a minority of windows is slowed, where the
// p50 over all operations moves with the share of slowed ones.
func TestWindowedP50IgnoresSlowMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 50*p50Window)
	for i := range vals {
		vals[i] = 50 + 40*rng.Float64()
		if w := i / p50Window; w%5 < 2 { // 40% of the windows run 3x slower
			vals[i] *= 3
		}
	}
	got := windowed(vals, 0.50, p50Window)
	if got < 66 || got > 74 {
		t.Errorf("windowed p50 = %.1f, want about 70, the calm windows' median", got)
	}
	if all := summarize(append([]float64(nil), vals...)).P50; all < 80 {
		t.Errorf("p50 over all = %.1f; the test no longer slows enough operations to tell the two apart", all)
	}
}

// Inserting scrapes keeps every read pointing at the observe of its job.
func TestAddScrapesRemapsDependencies(t *testing.T) {
	jobs := [][]trace.FileID{{1}, {}, {2, 3}}
	for i := 3; i < 3000; i++ {
		jobs = append(jobs, []trace.FileID{trace.FileID(i)})
	}
	order := make([]int32, len(jobs))
	for i := range order {
		order[i] = int32(i)
	}
	p := defaultMixed()
	ops, _ := planOps(rand.New(rand.NewSource(9)), 2500, order, jobs, p.kind)
	withScrapes, due := addScrapes(ops, 1000)
	if len(withScrapes) != len(ops)+2 || len(due) != len(withScrapes) {
		t.Fatalf("%d ops became %d (%d due times), want 2 scrapes added", len(ops), len(withScrapes), len(due))
	}
	for i, o := range withScrapes {
		if i > 0 && due[i] < due[i-1] {
			t.Fatalf("due times out of order at %d", i)
		}
		if o.dep < 0 {
			continue
		}
		d := withScrapes[o.dep]
		if d.kind != opObserve || d.job != o.job || len(jobs[o.job]) == 0 || int(o.dep) >= i {
			t.Fatalf("op %d (%+v) depends on op %d (%+v)", i, o, o.dep, d)
		}
	}
}
