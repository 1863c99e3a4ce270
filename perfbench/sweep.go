package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/sim"
	"filecule/internal/trace"
)

// sweepParams fixes the sweep-fig10 workload.
type sweepParams struct {
	scale  float64 // dzero scale; the grid's capacities scale with it
	traces int     // independent traces per run, swept in turn
	reps   int     // set-up repetitions (median reported)
}

func defaultSweep() *sweepParams {
	return &sweepParams{scale: 0.02, traces: 6, reps: 31}
}

// checkTB is the cache size at which the sweep's LRU cells are checked
// against sequential cache.Sim replays.
const checkTB = 10

func runSweepFig10(e *env) (*result, error) {
	p := e.sweep
	if p == nil {
		p = defaultSweep()
	}
	// Several independent traces per run, so one seed's quirks weigh
	// 1/traces in the figures.
	specs := make([]string, p.traces)
	bins := make([]string, p.traces)
	for i := range specs {
		specs[i] = fmt.Sprintf("dzero,seed=%d,scale=%g", e.seed*int64(p.traces)+int64(i), p.scale)
		bins[i] = filepath.Join(e.dir, fmt.Sprintf("sweep-%d.bin", i))
		if err := writeBinOnce(bins[i], specs[i]); err != nil {
			return nil, err
		}
	}
	cfg := sim.SweepConfig{Scale: p.scale}
	res := &result{}

	var setups []float64
	for rep := 0; rep < p.reps; rep++ {
		runtime.GC() // every repetition starts from a settled heap
		start := time.Now()
		src, err := trace.Open(bins[rep%len(bins)])
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		src.Close()
	}
	res.add("setup_s", "s", median(setups))
	res.layer("trace.open_ms", median(setups)*1e3)

	// The measured phase: whole sweeps, from open to result, over the
	// traces in turn, in whole rounds while the measuring time lasts. One
	// sweep is one operation: its wall time is op latency, the part before
	// the grid — decode, identification and request expansion — is its
	// observe latency, and its requests × cells over its wall time its
	// throughput. Each metric is the median over the sweeps, which a
	// neighbour slowing a few sweeps does not move.
	var (
		walls, ingests, grids, rest, rates []float64
		decodeNs, jobs                     int64
		results                            = make([]*sim.SweepResult, len(bins))
		budget                             = time.Duration(e.seconds * float64(time.Second))
		begun                              = time.Now()
		round                              time.Duration
	)
	heap := startHeapSampler()
	for first := true; first || time.Since(begun)+round <= budget; first = false {
		roundStart := time.Now()
		for i, bin := range bins {
			start := time.Now()
			src, err := trace.Open(bin)
			if err != nil {
				return nil, err
			}
			ts := &timedSource{Source: src}
			var in trace.Source = src
			if e.traced {
				in = ts
			}
			r, err := sim.SweepSource(in, cfg)
			src.Close()
			if err != nil {
				return nil, err
			}
			wall := time.Since(start).Seconds()
			walls = append(walls, wall*1e6)
			ingests = append(ingests, (wall-r.WallSeconds)*1e6)
			rates = append(rates, float64(r.Requests)*float64(len(r.Cells))/wall)
			grids = append(grids, r.WallSeconds)
			rest = append(rest, wall-r.WallSeconds-float64(ts.decodeNs)/1e9)
			decodeNs += ts.decodeNs
			jobs += ts.jobs
			results[i] = r
		}
		round = time.Since(roundStart)
	}
	res.layer("runtime.heap_peak_mb", heap.finish())
	res.layer("loadgen.op_p50_us", median(walls))
	res.Attempted = int64(len(walls))
	res.E2E = append(res.E2E,
		metric{Name: "op_p50_us", Unit: "us", Value: median(walls), Samples: len(walls)},
		metric{Name: "observe_p50_us", Unit: "us", Value: median(ingests), Samples: len(ingests)},
		metric{Name: "max_ops_per_s", Unit: "1/s", Value: median(rates), Samples: len(rates)})
	for i, r := range results {
		res.info("input %s: %d jobs, %d files, %d filecules, %d requests x %d cells", specs[i], r.Jobs, r.Files, r.Filecules, r.Requests, len(r.Cells))
	}
	res.info("%d sweeps, sweep_cellreq_per_s %.6g", len(walls), median(rates))

	// Output checks against an independent sequential path.
	var t *trace.Trace
	var reqs []trace.Request
	var part *core.Partition
	for i, r := range results {
		var err error
		if t, err = trace.ReadFile(bins[i]); err != nil {
			return nil, err
		}
		reqs = t.Requests()
		var reqErr error
		if r.Requests != len(reqs) {
			reqErr = fmt.Errorf("sweep replayed %d requests, the trace has %d", r.Requests, len(reqs))
		}
		res.check(fmt.Sprintf("trace %d: sweep request count == trace request count", i), reqErr)
		part = core.Identify(t)
		for _, g := range []string{"file", "filecule"} {
			res.check(fmt.Sprintf("trace %d: %s-LRU at %d TB == cache.Sim replay", i, g, checkTB), checkLRUCell(r, t, part, reqs, g, p.scale))
		}
	}

	if e.traced {
		res.layer("trace.decode_ns_per_job", float64(decodeNs)/float64(max(jobs, 1)))
		res.layer("sim.grid_s", median(grids))
		res.layer("sim.identify_sort_s", median(rest))
		// One policy at a time over the last trace's partition and
		// requests: where the grid's time goes.
		shell := &trace.Trace{Files: t.Files}
		for _, pol := range sim.SweepPolicies {
			start := time.Now()
			if _, err := sim.Sweep(shell, part, reqs, sim.SweepConfig{Scale: p.scale, Policies: []string{pol}}); err != nil {
				return nil, err
			}
			res.layer("sim.cells_s."+pol, time.Since(start).Seconds())
		}
		ops := make([]op, len(t.Jobs))
		for i := range ops {
			ops[i] = op{kind: opObserve, job: int32(i), dep: -1}
		}
		replayLayers(res, ops, jobFiles(t), nil, 0)
	}
	return res, nil
}

// checkLRUCell compares one LRU cell of the sweep at checkTB with a
// sequential cache.Sim replay of the same requests.
func checkLRUCell(r *sim.SweepResult, t *trace.Trace, part *core.Partition, reqs []trace.Request, gran string, scale float64) error {
	capacity := int64(checkTB * scale * (1 << 40))
	var g cache.Granularity = cache.NewFileGranularity(t)
	if gran == "filecule" {
		g = cache.NewFileculeGranularity(t, part)
	}
	want := cache.NewSim(t, g, cache.NewLRU(), capacity).Replay(reqs)
	for _, c := range r.Cells {
		if c.Policy == "lru" && c.Granularity == gran && c.CacheTB == checkTB {
			if c.CapacityBytes != capacity {
				return fmt.Errorf("cell capacity %d bytes, want %d", c.CapacityBytes, capacity)
			}
			if c.Metrics != want {
				return fmt.Errorf("sweep cell %+v, cache.Sim %+v", c.Metrics, want)
			}
			return nil
		}
	}
	return fmt.Errorf("sweep has no %s-LRU cell at %d TB", gran, checkTB)
}
