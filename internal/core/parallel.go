package core

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"

	"filecule/internal/trace"
)

// IdentifyParallel computes the same partition as Identify using worker
// goroutines. Files are sharded by ID: each worker scans the job stream and
// builds signature groups for its own shard only, so workers share nothing
// and need no locks; a sequential merge then unifies groups whose
// signatures collide across shards (files with identical job sets must end
// up in one filecule regardless of shard).
//
// workers <= 0 selects GOMAXPROCS. The result is canonical and equal to
// Identify's (verified by property test); use it for full-scale traces
// where the ~10M-request scan dominates.
func IdentifyParallel(t *trace.Trace, workers int) *Partition {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(t.Files) < 2*workers {
		return Identify(t)
	}

	type group struct {
		files    []trace.FileID
		requests int
	}
	shardGroups := make([]map[string]*group, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Phase 1: per-file job lists, restricted to this shard.
			jobLists := make(map[trace.FileID][]trace.JobID)
			for i := range t.Jobs {
				id := t.Jobs[i].ID
				for _, f := range t.Jobs[i].Files {
					if int(f)%workers != w {
						continue
					}
					l := jobLists[f]
					if len(l) > 0 && l[len(l)-1] == id {
						continue // duplicate within the job
					}
					jobLists[f] = append(l, id)
				}
			}
			// Phase 2: group by exact signature.
			groups := make(map[string]*group)
			var buf []byte
			for f, l := range jobLists {
				buf = buf[:0]
				var tmp [binary.MaxVarintLen64]byte
				for _, j := range l {
					n := binary.PutUvarint(tmp[:], uint64(j))
					buf = append(buf, tmp[:n]...)
				}
				k := string(buf)
				g := groups[k]
				if g == nil {
					g = &group{requests: len(l)}
					groups[k] = g
				}
				g.files = append(g.files, f)
			}
			shardGroups[w] = groups
		}(w)
	}
	wg.Wait()

	// Phase 3: merge shards; identical signatures unify across shards.
	merged := make(map[string]*group)
	for _, groups := range shardGroups {
		for k, g := range groups {
			if m, ok := merged[k]; ok {
				m.files = append(m.files, g.files...)
			} else {
				merged[k] = g
			}
		}
	}

	p := &Partition{}
	for _, g := range merged {
		sort.Slice(g.files, func(a, b int) bool { return g.files[a] < g.files[b] })
		p.Filecules = append(p.Filecules, Filecule{Files: g.files, Requests: g.requests})
	}
	p.canonicalize()
	return p
}
