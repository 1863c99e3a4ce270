package main

import (
	"encoding/binary"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
)

// perLayerNames lists the per-layer metrics of a traced run, in order. A
// layer a workload does not exercise reports 0.
var perLayerNames = []struct{ name, unit string }{
	{"trace.load_ms", "ms"},
	{"trace.open_ms", "ms"},
	{"trace.decode_ns_per_job", "ns"},
	{"core.observe_ns_per_job", "ns"},
	{"core.repeat_job_ratio", "ratio"},
	{"core.snapshot_us", "us"},
	{"core.filecules", "count"},
	{"core.blocks", "count"},
	{"durable.observe_us", "us"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.checkpoint_reused_ratio", "ratio"},
	{"durable.sync_lag_jobs", "count"},
	{"durable.state_bytes_per_job", "B"},
	{"durable.replayed_jobs", "count"},
	{"durable.open_ms", "ms"},
	{"durable.recovery_ms", "ms"},
	{"wire.client_rtt_us", "us"},
	{"wire.conn_reads_per_req", "count"},
	{"wire.conn_writes_per_req", "count"},
	{"wire.bytes_in_per_job", "B"},
	{"wire.bytes_out_per_req", "B"},
	{"wire.conn_write_us", "us"},
	{"wire.unattributed_us", "us"},
	{"server.handler_us.observe", "us"},
	{"server.handler_us.filecule", "us"},
	{"server.handler_us.advise", "us"},
	{"server.handler_us.summary", "us"},
	{"server.scrape_ms", "ms"},
	{"server.conn_writes_per_req", "count"},
	{"server.unattributed_us", "us"},
	{"cache.advise_us", "us"},
	{"cache.granularity_build_ms", "ms"},
	{"sim.grid_s", "s"},
	{"sim.identify_sort_s", "s"},
	{"sim.cells_s.lru", "s"},
	{"sim.cells_s.arc", "s"},
	{"sim.cells_s.gds", "s"},
	{"sim.cells_s.opt", "s"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.op_p50_us", "us"},
	{"loadgen.op_p99_us", "us"},
	{"loadgen.observe_p99_us", "us"},
	{"loadgen.read_p50_us", "us"},
	{"loadgen.read_p99_us", "us"},
	{"runtime.heap_peak_mb", "MiB"},
	{"tracing.overhead_share", "ratio"},
}

// replayOps returns the acknowledged ops of the phases in plan order.
func replayOps(phases ...*schedule) []op {
	var out []op
	for _, s := range phases {
		for i := range s.ops {
			if s.state[i].Load() == stateOK {
				out = append(out, s.ops[i])
			}
		}
	}
	return out
}

// replayLayers feeds a run's acknowledged operation sequence straight into
// core and cache, with no serving layer in between: each observe into a
// fresh core.Engine, a Snapshot at each read, and at each advise the
// granularity build and the cache.Advise call the server would make.
// capacity is the advise requests' cache size.
func replayLayers(r *result, ops []op, jobs [][]trace.FileID, catalog *trace.Trace, capacity int64) {
	e := core.NewEngine(0)
	var (
		observeNs, snapNs, granNs, adviseNs time.Duration
		nObs, nSnap, nGran, nAdvise         int
		gran                                *cache.FileculeGranularity
		granSnap                            *core.Partition
		runStart                            = time.Now()
	)
	for _, o := range ops {
		if o.kind == opObserve {
			e.Observe(jobs[o.job])
			nObs++
			continue
		}
		if o.kind == opScrape {
			continue
		}
		now := time.Now()
		observeNs += now.Sub(runStart)
		p := e.Snapshot()
		t := time.Now()
		snapNs += t.Sub(now)
		nSnap++
		if o.kind == opAdvise {
			if p != granSnap {
				gran, granSnap = cache.NewFileculeGranularity(catalog, p), p
				nGran++
				granNs += time.Since(t)
			}
			t = time.Now()
			_, _ = cache.Advise(gran, cache.AdviceRequest{Capacity: capacity, Files: jobs[o.job]})
			adviseNs += time.Since(t)
			nAdvise++
		}
		runStart = time.Now()
	}
	observeNs += time.Since(runStart)
	r.layer("core.observe_ns_per_job", perOp(observeNs, nObs))
	r.layer("core.snapshot_us", perOp(snapNs, nSnap)/1e3)
	r.layer("core.filecules", float64(e.NumFilecules()))
	r.layer("core.blocks", float64(e.Blocks()))
	r.layer("cache.granularity_build_ms", perOp(granNs, nGran)/1e6)
	r.layer("cache.advise_us", perOp(adviseNs, nAdvise)/1e3)
	r.layer("core.repeat_job_ratio", repeatRatio(ops, jobs))
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// repeatRatio is the share of observed jobs whose input file list exactly
// repeats an earlier observed job's — the jobs the engine's repeat-job
// fast path can answer.
func repeatRatio(ops []op, jobs [][]trace.FileID) float64 {
	seen := make(map[string]struct{})
	var n, rep int
	var key []byte
	for _, o := range ops {
		if o.kind != opObserve {
			continue
		}
		key = key[:0]
		for _, f := range jobs[o.job] {
			key = binary.AppendUvarint(key, uint64(f))
		}
		n++
		if _, ok := seen[string(key)]; ok {
			rep++
		} else {
			seen[string(key)] = struct{}{}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(rep) / float64(n)
}
