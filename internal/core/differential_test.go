package core

// Differential property test: every identification algorithm in the package
// must produce the same canonical partition on the same workload, and that
// partition must satisfy the three filecule invariants from the definition
// (disjointness, non-emptiness, uniform request count). The implementations
// share almost no code — batch signature grouping, sharded parallel
// grouping, online partition refinement, and the mutex-guarded monitor fed
// concurrently — so agreement across randomized traces is strong evidence
// of correctness for all of them.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"filecule/internal/synth"
	"filecule/internal/trace"
)

// diffTraces yields a mix of synthetic DZero-like workloads and adversarial
// random traces (tiny populations force heavy filecule splitting).
func diffTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	var out []*trace.Trace
	for seed := int64(1); seed <= 3; seed++ {
		t, err := synth.Generate(synth.DZero(seed, 0.002))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	for seed := int64(10); seed <= 14; seed++ {
		out = append(out, adversarialTrace(seed))
	}
	return out
}

// adversarialTrace builds a trace with uniformly random small input sets,
// including empty jobs, duplicate file IDs within a job, and never-requested
// files — the edge cases the synthetic generator avoids.
func adversarialTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	nFiles := 20 + rng.Intn(60)
	nJobs := 50 + rng.Intn(200)
	t := &trace.Trace{
		Sites: []trace.Site{{ID: 0, Name: "s", Domain: ".gov", Nodes: 1}},
		Users: []trace.User{{ID: 0, Name: "u", Site: 0}},
	}
	for i := 0; i < nFiles; i++ {
		t.Files = append(t.Files, trace.File{
			ID: trace.FileID(i), Name: "f", Size: 1 + rng.Int63n(1<<20),
		})
	}
	for i := 0; i < nJobs; i++ {
		n := rng.Intn(8) // 0 is allowed: empty input set
		files := make([]trace.FileID, 0, n)
		for k := 0; k < n; k++ {
			files = append(files, trace.FileID(rng.Intn(nFiles)))
			if k > 0 && rng.Intn(4) == 0 {
				files = append(files, files[rng.Intn(len(files))]) // duplicate
			}
		}
		t.Jobs = append(t.Jobs, trace.Job{
			ID: trace.JobID(i), Node: "n", App: "a", Version: "1", Files: files,
		})
	}
	return t
}

// checkInvariants asserts the three filecule properties plus structural
// sanity, and that request counts are uniform across each filecule's
// members according to an independent per-file count.
func checkInvariants(t *testing.T, tr *trace.Trace, p *Partition) {
	t.Helper()
	// Disjointness, non-emptiness, dense IDs, byFile consistency.
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Uniform request count, recomputed from the raw trace: a file's
	// request count is the number of distinct jobs whose input set
	// contains it.
	counts := make(map[trace.FileID]int)
	for i := range tr.Jobs {
		seen := make(map[trace.FileID]bool)
		for _, f := range tr.Jobs[i].Files {
			if !seen[f] {
				seen[f] = true
				counts[f]++
			}
		}
	}
	covered := 0
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		for _, f := range fc.Files {
			covered++
			if counts[f] != fc.Requests {
				t.Fatalf("filecule %d claims %d requests but file %d has %d",
					i, fc.Requests, f, counts[f])
			}
		}
	}
	if covered != len(counts) {
		t.Fatalf("partition covers %d files, trace requests %d", covered, len(counts))
	}
}

func TestDifferentialIdentification(t *testing.T) {
	for ti, tr := range diffTraces(t) {
		ref := Identify(tr)
		checkInvariants(t, tr, ref)

		for _, workers := range []int{2, 3, 4, 8} {
			if p := IdentifyParallel(tr, workers); !ref.Equal(p) {
				t.Errorf("trace %d: IdentifyParallel(%d) differs from Identify", ti, workers)
			}
		}

		r := NewRefiner()
		r.ObserveTrace(tr)
		if p := r.Partition(); !ref.Equal(p) {
			t.Errorf("trace %d: Refiner differs from Identify", ti)
		}

		// Sharded engine, sequential feed, at several shard counts
		// (1 shard degenerates to pure per-shard refinement; more
		// shards exercise the cross-shard signature merge).
		for _, shards := range []int{1, 2, 8, 32} {
			e := NewEngine(shards)
			e.ObserveTrace(tr)
			if p := e.Snapshot(); !ref.Equal(p) {
				t.Errorf("trace %d: Engine(%d shards) differs from Identify", ti, shards)
			}
			if got, want := e.NumFilecules(), ref.NumFilecules(); got != want {
				t.Errorf("trace %d: Engine(%d shards) counts %d filecules, want %d", ti, shards, got, want)
			}
		}

		// Monitor fed by concurrent submitters (order scrambled by the
		// scheduler): filecules are equivalence classes, so the final
		// partition must not depend on observation order. Run under
		// -race this also checks the locking.
		m := NewMonitor()
		var wg sync.WaitGroup
		workers := 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(tr.Jobs); i += workers {
					m.ObserveJob(&tr.Jobs[i])
				}
			}(w)
		}
		wg.Wait()
		if p := m.Snapshot(); !ref.Equal(p) {
			t.Errorf("trace %d: concurrent Monitor differs from Identify", ti)
		}
		checkInvariants(t, tr, m.Snapshot())
	}
}

// TestDifferentialPrefixes checks the online/batch equivalence the Refiner
// documents: after ANY prefix of the job stream, the refined partition
// equals batch identification over that prefix.
func TestDifferentialPrefixes(t *testing.T) {
	tr := adversarialTrace(99)
	r := NewRefiner()
	for i := range tr.Jobs {
		r.Observe(tr.Jobs[i].Files)
		if i%13 != 0 { // check a sample of prefixes, not all O(n^2)
			continue
		}
		ids := make([]trace.JobID, i+1)
		for k := range ids {
			ids[k] = trace.JobID(k)
		}
		want := IdentifyJobs(tr, ids)
		if got := r.Partition(); !want.Equal(got) {
			t.Fatalf("prefix %d: refiner differs from batch identification", i+1)
		}
	}
}

// TestDifferentialPrefixAllIdentifiers is the prefix-equivalence property
// across every identifier in the package: after each sampled prefix of the
// job stream, batch identification (Identify over a truncated trace,
// IdentifyJobs over the prefix's job IDs, IdentifyParallel), the online
// Refiner and the sharded Engine must all produce one bit-identical
// canonical partition.
func TestDifferentialPrefixAllIdentifiers(t *testing.T) {
	for _, seed := range []int64{5, 99, 123} {
		tr := adversarialTrace(seed)
		r := NewRefiner()
		e := NewEngine(4)
		for i := range tr.Jobs {
			r.Observe(tr.Jobs[i].Files)
			e.Observe(tr.Jobs[i].Files)
			if i%7 != 0 && i != len(tr.Jobs)-1 {
				continue
			}
			ids := make([]trace.JobID, i+1)
			for k := range ids {
				ids[k] = trace.JobID(k)
			}
			want := IdentifyJobs(tr, ids)
			prefix := *tr
			prefix.Jobs = tr.Jobs[:i+1]
			if got := Identify(&prefix); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Identify differs from IdentifyJobs", seed, i+1)
			}
			if got := IdentifyParallel(&prefix, 3); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: IdentifyParallel differs from batch", seed, i+1)
			}
			if got := r.Partition(); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Refiner differs from batch", seed, i+1)
			}
			if got := e.Snapshot(); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Engine differs from batch", seed, i+1)
			}
			checkInvariants(t, &prefix, e.Snapshot())
		}
	}
}

// Engine reads checkEngineReads can run, as a bit mask.
const (
	readSnapshot uint8 = 1 << iota
	readExport
	readLookup
	readAll = readSnapshot | readExport | readLookup
)

// checkEngineReads runs the reads selected by mask against e and requires
// each to agree exactly with want, batch identification over the same
// observed prefix: the Snapshot (which must also Validate), the
// ExportState (in canonical order, with the observed count) and FileculeOf
// for every covered file and for one never observed.
func checkEngineReads(e *Engine, want *Partition, observed int64, mask uint8) error {
	if mask&readSnapshot != 0 {
		p := e.Snapshot()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("snapshot: %v", err)
		}
		if !want.Equal(p) {
			return fmt.Errorf("snapshot differs from batch identification")
		}
	}
	if mask&readExport != 0 {
		st := e.ExportState()
		if st.Observed != observed {
			return fmt.Errorf("export: observed %d, want %d", st.Observed, observed)
		}
		fcs := make([]Filecule, len(st.Groups))
		for i, g := range st.Groups {
			if i > 0 && st.Groups[i-1].Files[0] >= g.Files[0] {
				return fmt.Errorf("export: group %d out of canonical order", i)
			}
			fcs[i] = Filecule{Files: g.Files, Requests: g.Requests}
		}
		if !want.Equal(NewPartition(fcs)) {
			return fmt.Errorf("export differs from batch identification")
		}
	}
	if mask&readLookup != 0 {
		p := e.Snapshot()
		for i := range want.Filecules {
			w := &want.Filecules[i]
			for _, f := range w.Files {
				fc := p.FileculeOf(f)
				if fc == nil || fc.ID != i || fc.Requests != w.Requests || !slices.Equal(fc.Files, w.Files) {
					return fmt.Errorf("FileculeOf(%d) = %+v, want %+v", f, fc, *w)
				}
			}
		}
		if fc := p.FileculeOf(1 << 20); fc != nil {
			return fmt.Errorf("FileculeOf(unobserved) = %+v", fc)
		}
	}
	return nil
}

// TestDifferentialInterleavedReads interleaves observes with Snapshot,
// ExportState and FileculeOf at random points of the job stream — so dirty
// blocks pile up across several observes between refreshes — and always
// right after a split or a repeat of a cached input set (a fast-path hit).
// Midway it recovers a second engine through ExportState/ImportState and
// reads that one at random points too. Every read must equal batch
// identification over the prefix exactly, and the counters must match it
// after every job.
func TestDifferentialInterleavedReads(t *testing.T) {
	for _, seed := range []int64{5, 99, 123} {
		rng := rand.New(rand.NewSource(seed))
		// The trace, then a shuffled replay of it: the first pass splits
		// heavily, the second re-requests whole filecules, mostly through
		// the fast path.
		tr := adversarialTrace(seed)
		n := len(tr.Jobs)
		for _, i := range rng.Perm(n) {
			j := tr.Jobs[i]
			j.ID = trace.JobID(len(tr.Jobs))
			tr.Jobs = append(tr.Jobs, j)
		}
		cut := n/2 + rng.Intn(n)
		e, recovered := NewEngine(4), (*Engine)(nil)
		ids := make([]trace.JobID, 0, len(tr.Jobs))
		for k := range tr.Jobs {
			files := tr.Jobs[k].Files
			epoch := e.splitEpoch.Load()
			_, cached := e.jobCache.Load(jobKey(files))
			e.Observe(files)
			if recovered != nil {
				recovered.Observe(files)
			}
			ids = append(ids, trace.JobID(k))
			want := IdentifyJobs(tr, ids)

			mask := uint8(rng.Intn(8))
			if mask == 0 && (cached || e.splitEpoch.Load() != epoch) {
				mask = uint8(1 + rng.Intn(7))
			}
			for _, c := range []struct {
				name string
				e    *Engine
				mask uint8
			}{{"engine", e, mask}, {"recovered engine", recovered, uint8(rng.Intn(8))}} {
				if c.e == nil {
					continue
				}
				if c.e.NumFilecules() != want.NumFilecules() || c.e.NumFiles() != want.NumFiles() {
					t.Fatalf("seed %d prefix %d: %s counters %d/%d, want %d/%d", seed, k+1, c.name,
						c.e.NumFilecules(), c.e.NumFiles(), want.NumFilecules(), want.NumFiles())
				}
				if err := checkEngineReads(c.e, want, int64(k+1), c.mask); err != nil {
					t.Fatalf("seed %d prefix %d: %s: %v", seed, k+1, c.name, err)
				}
			}
			if k+1 == cut {
				recovered = NewEngine(8)
				if err := recovered.ImportState(e.ExportState()); err != nil {
					t.Fatalf("seed %d: import at %d: %v", seed, cut, err)
				}
			}
		}
	}
}

// TestMonitorSnapshotCaching pins the snapshot-caching contract the serving
// layer relies on: unchanged state returns the identical pointer; an
// observation invalidates it.
func TestMonitorSnapshotCaching(t *testing.T) {
	m := NewMonitor()
	m.Observe([]trace.FileID{1, 2})
	p1 := m.Snapshot()
	if p2 := m.Snapshot(); p1 != p2 {
		t.Error("snapshot not cached between observations")
	}
	m.Observe([]trace.FileID{2, 3})
	p3 := m.Snapshot()
	if p3 == p1 {
		t.Error("snapshot not invalidated by Observe")
	}
	if p3.NumFiles() != 3 {
		t.Errorf("snapshot covers %d files, want 3", p3.NumFiles())
	}
	// ObserveBatch must also invalidate.
	m.ObserveBatch([][]trace.FileID{{4}, {5}})
	if p4 := m.Snapshot(); p4 == p3 || p4.NumFiles() != 5 {
		t.Error("ObserveBatch did not invalidate the cached snapshot")
	}
}
