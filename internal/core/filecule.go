// Package core implements the paper's primary contribution: the filecule
// abstraction and algorithms to identify filecules from access traces.
//
// A filecule (HPDC'06, Section 3) is a maximal group of files that is always
// used together: files F1..Fn form a filecule G iff for every Fi, Fj in G
// and every job input set G' containing Fi, G' also contains Fj. Filecules
// are therefore the equivalence classes of files under "requested by exactly
// the same set of jobs". Directly from the definition:
//
//  1. any two filecules are disjoint;
//  2. a filecule has at least one file (single-file filecules are the
//     "monatomic" case);
//  3. every file in a filecule has the same request count as the filecule.
//
// The package offers two identification algorithms — batch signature
// grouping (Identify) and online partition refinement (Refiner) — which
// produce identical partitions, plus the partial-knowledge identification of
// Section 6 (IdentifyJobs over a subset of jobs, and Coarsens to verify that
// partial knowledge can only merge, never split, true filecules).
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"filecule/internal/trace"
)

// Filecule is one identified group of files. Files is sorted by FileID.
type Filecule struct {
	// ID is the filecule's dense index within its Partition.
	ID int
	// Files lists the member files in increasing FileID order.
	Files []trace.FileID
	// Requests is the number of jobs whose input set included this
	// filecule. By property 3 it equals the request count of every
	// member file.
	Requests int
}

// NumFiles returns the number of member files.
func (f *Filecule) NumFiles() int { return len(f.Files) }

// Partition is a complete filecule decomposition of the files requested in
// a trace. Files never requested by any job belong to no filecule.
type Partition struct {
	Filecules []Filecule
	// nFiles is the number of files the filecules cover.
	nFiles int
	// idx is the file→filecule index, built on first lookup so assembling
	// a partition costs no per-file work until someone asks.
	idx atomic.Pointer[fileIndex]

	// sizeMu guards the per-catalog byte-size table cached by SizeTable.
	sizeMu  sync.Mutex
	sizeFor *trace.Trace
	sizeTab []int64
}

// NumFilecules returns the number of filecules.
func (p *Partition) NumFilecules() int { return len(p.Filecules) }

// NewPartition assembles a canonical Partition from filecule groups. Each
// group's Files must be sorted strictly ascending and the groups must be
// disjoint (Validate checks both); IDs are assigned by canonical order, so
// callers need not set them.
func NewPartition(fcs []Filecule) *Partition {
	p := &Partition{Filecules: fcs}
	p.canonicalize()
	return p
}

// fileIndex is a flat file→filecule table: entry f holds 1 + the index of
// the filecule containing f (0 = not covered). It is paged like the
// engine's slot table, so memory follows the ID pages the partition
// actually uses, even for sparse IDs.
type fileIndex struct {
	pages []*slotPage
}

// index returns the file→filecule table, building it on first use with
// plain stores. Safe for concurrent use: racing builders produce identical
// tables and one wins the CompareAndSwap.
func (p *Partition) index() *fileIndex {
	if x := p.idx.Load(); x != nil {
		return x
	}
	x := &fileIndex{}
	for i := range p.Filecules {
		for _, f := range p.Filecules[i].Files {
			pi := int(uint32(f) >> slotPageBits)
			if pi >= len(x.pages) {
				x.pages = append(x.pages, make([]*slotPage, pi+1-len(x.pages))...)
			}
			pg := x.pages[pi]
			if pg == nil {
				pg = new(slotPage)
				x.pages[pi] = pg
			}
			pg[uint32(f)&slotPageMask] = int32(i + 1)
		}
	}
	p.idx.CompareAndSwap(nil, x)
	return p.idx.Load()
}

// Of returns the filecule index containing file f, or -1 if f was never
// requested.
func (p *Partition) Of(f trace.FileID) int {
	x := p.index()
	if pi := uint32(f) >> slotPageBits; pi < uint32(len(x.pages)) && x.pages[pi] != nil {
		return int(x.pages[pi][uint32(f)&slotPageMask]) - 1
	}
	return -1
}

// FileculeOf returns the filecule containing f, or nil if f was never
// requested.
func (p *Partition) FileculeOf(f trace.FileID) *Filecule {
	i := p.Of(f)
	if i < 0 {
		return nil
	}
	return &p.Filecules[i]
}

// NumFiles returns the total number of files covered by the partition.
func (p *Partition) NumFiles() int { return p.nFiles }

// Size returns the total byte size of filecule i given the trace's file
// catalog. Files outside the catalog — possible when a partition merges
// federated remote state whose file space is wider than the local catalog —
// contribute zero rather than faulting.
func (p *Partition) Size(t *trace.Trace, i int) int64 {
	var n int64
	for _, f := range p.Filecules[i].Files {
		if f < 0 || int(f) >= len(t.Files) {
			continue
		}
		n += t.Files[f].Size
	}
	return n
}

// SizeTable returns every filecule's byte size under t's catalog, indexed by
// filecule ID. The table is computed once per (partition, catalog) pair and
// cached: published partitions are immutable, so every consumer of the same
// snapshot — JSON encoding, summaries, granularity construction, the binary
// wire protocol — shares one O(files) pass instead of recomputing sums per
// filecule. Callers must not mutate the returned slice. Safe for concurrent
// use.
func (p *Partition) SizeTable(t *trace.Trace) []int64 {
	p.sizeMu.Lock()
	defer p.sizeMu.Unlock()
	if p.sizeFor == t && p.sizeTab != nil {
		return p.sizeTab
	}
	tab := make([]int64, len(p.Filecules))
	for i := range p.Filecules {
		tab[i] = p.Size(t, i)
	}
	p.sizeFor, p.sizeTab = t, tab
	return tab
}

// Validate checks the structural invariants of the partition: dense IDs,
// sorted non-empty member lists, disjointness, and file-index consistency.
func (p *Partition) Validate() error {
	seen := make(map[trace.FileID]int, p.nFiles)
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		if fc.ID != i {
			return fmt.Errorf("core: filecule at index %d has ID %d", i, fc.ID)
		}
		if len(fc.Files) == 0 {
			return fmt.Errorf("core: filecule %d is empty", i)
		}
		if fc.Requests < 1 {
			return fmt.Errorf("core: filecule %d has %d requests; must be >= 1", i, fc.Requests)
		}
		for k, f := range fc.Files {
			if k > 0 && fc.Files[k-1] >= f {
				return fmt.Errorf("core: filecule %d files not strictly increasing at %d", i, k)
			}
			if prev, dup := seen[f]; dup {
				return fmt.Errorf("core: file %d in filecules %d and %d", f, prev, i)
			}
			seen[f] = i
			if got := p.Of(f); got != i {
				return fmt.Errorf("core: index[%d] = %d, want %d", f, got, i)
			}
		}
	}
	if p.nFiles != len(seen) {
		return fmt.Errorf("core: nFiles = %d, filecules cover %d files", p.nFiles, len(seen))
	}
	return nil
}

// Canonical sorts filecules by their smallest member FileID and renumbers
// IDs, producing a unique representation for a given partition. Both
// identification algorithms return canonical partitions, so equal partitions
// compare equal with Equal.
func (p *Partition) canonicalize() {
	slices.SortFunc(p.Filecules, byFirstFile)
	p.nFiles = 0
	for i := range p.Filecules {
		p.Filecules[i].ID = i
		p.nFiles += len(p.Filecules[i].Files)
	}
}

// byFirstFile orders filecules canonically: by smallest member file.
func byFirstFile(a, b Filecule) int { return cmp.Compare(a.Files[0], b.Files[0]) }

// Equal reports whether two partitions decompose the same file population
// into the same groups with the same request counts.
func (p *Partition) Equal(q *Partition) bool {
	if len(p.Filecules) != len(q.Filecules) {
		return false
	}
	for i := range p.Filecules {
		a, b := &p.Filecules[i], &q.Filecules[i]
		if a.Requests != b.Requests || !slices.Equal(a.Files, b.Files) {
			return false
		}
	}
	return true
}

// Identify computes the filecule partition of an entire trace using batch
// signature grouping: each file's signature is the exact set of job IDs that
// requested it, and files are grouped by equal signatures. Memory and time
// are linear in the total number of (job, file) request pairs.
func Identify(t *trace.Trace) *Partition {
	jobs := make([]trace.JobID, len(t.Jobs))
	for i := range jobs {
		jobs[i] = t.Jobs[i].ID
	}
	return IdentifyJobs(t, jobs)
}

// IdentifySource drains a job stream through the online engine and returns
// the resulting canonical partition together with the job count. It is the
// streaming counterpart of Identify: equal to Identify on the materialized
// trace (identification is commutative over jobs), but with peak memory
// bounded by the source's chunk size plus the partition itself.
func IdentifySource(src trace.Source) (*Partition, int64, error) {
	e := NewEngine(0)
	n, err := e.ObserveSource(src)
	if err != nil {
		return nil, n, err
	}
	return e.Snapshot(), n, nil
}

// IdentifyJobs computes the filecule partition induced by only the given
// jobs — the partial-knowledge identification of Section 6. Files requested
// by none of the jobs are not covered. The result is canonical.
func IdentifyJobs(t *trace.Trace, jobs []trace.JobID) *Partition {
	// Collect, per file, the ascending list of distinct observing jobs.
	// Job lists are built in iteration order; sorting jobs first makes
	// every per-file list sorted without a per-file sort.
	ordered := append([]trace.JobID(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a] < ordered[b] })

	jobLists := make(map[trace.FileID][]trace.JobID)
	for _, id := range ordered {
		j := &t.Jobs[id]
		for _, f := range j.Files {
			l := jobLists[f]
			if len(l) > 0 && l[len(l)-1] == id {
				continue // duplicate entry of f within this job
			}
			jobLists[f] = append(l, id)
		}
	}

	// Group files by signature. The signature key is the exact varint
	// encoding of the job list, so grouping is collision-free.
	groups := make(map[string][]trace.FileID)
	var buf []byte
	for f, l := range jobLists {
		buf = buf[:0]
		var tmp [binary.MaxVarintLen64]byte
		for _, j := range l {
			n := binary.PutUvarint(tmp[:], uint64(j))
			buf = append(buf, tmp[:n]...)
		}
		k := string(buf)
		groups[k] = append(groups[k], f)
	}

	p := &Partition{}
	for _, files := range groups {
		sort.Slice(files, func(a, b int) bool { return files[a] < files[b] })
		p.Filecules = append(p.Filecules, Filecule{
			Files:    files,
			Requests: len(jobLists[files[0]]),
		})
	}
	p.canonicalize()
	return p
}
