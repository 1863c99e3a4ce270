package core

import (
	"testing"

	"filecule/internal/trace"
)

// decodeFuzzJobs turns fuzzer bytes into a job stream over a small file
// population: bytes 0xF8..0xFF terminate the current job (empty jobs are
// legal and must be no-ops), any other byte contributes file ID b&0x3F
// (duplicates within a job are legal and must be deduplicated). A
// terminator's low three bits pick the reads to run after its job (see
// checkEngineReads); the stream's last job is always followed by all of
// them.
func decodeFuzzJobs(data []byte) (jobs [][]trace.FileID, reads []uint8) {
	if len(data) > 256 {
		data = data[:256]
	}
	var cur []trace.FileID
	for _, b := range data {
		if b >= 0xF8 {
			jobs = append(jobs, cur)
			reads = append(reads, b&readAll)
			cur = nil
			continue
		}
		cur = append(cur, trace.FileID(b&0x3F))
	}
	return append(jobs, cur), append(reads, readAll)
}

// FuzzEnginePrefix is the prefix-equivalence property as a fuzz target:
// after every job k of a fuzz-generated stream, the engine's counters must
// match batch identification over jobs[:k], and so must the reads the
// input schedules there — the same bar the Refiner is held to, across an
// arbitrary interleaving of splits, duplicates, empty jobs, re-requests
// and snapshot points.
func FuzzEnginePrefix(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2})
	f.Add([]byte{0xFF, 0xFF, 5, 5, 5, 0xFF, 5})
	f.Add([]byte{10, 11, 12, 13, 0xFF, 10, 11, 0xFF, 12, 0xFF, 10, 13})
	f.Add([]byte{1, 2, 3, 0xF8, 1, 2, 0xF8, 2, 3, 0xFA, 1, 2, 3, 0xF9, 1, 2, 0xFC, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, reads := decodeFuzzJobs(data)
		tr := &trace.Trace{}
		for i, files := range jobs {
			tr.Jobs = append(tr.Jobs, trace.Job{ID: trace.JobID(i), Files: files})
		}
		e := NewEngine(4)
		r := NewRefiner()
		ids := make([]trace.JobID, 0, len(jobs))
		for k, files := range jobs {
			e.Observe(files)
			r.Observe(files)
			ids = append(ids, trace.JobID(k))
			want := IdentifyJobs(tr, ids)
			if err := checkEngineReads(e, want, int64(k+1), reads[k]); err != nil {
				t.Fatalf("job %d: %v", k, err)
			}
			if !want.Equal(r.Partition()) {
				t.Fatalf("job %d: refiner differs from IdentifyJobs over the prefix", k)
			}
			if e.NumFilecules() != want.NumFilecules() || e.NumFiles() != want.NumFiles() {
				t.Fatalf("job %d: counters %d/%d, want %d/%d", k,
					e.NumFilecules(), e.NumFiles(), want.NumFilecules(), want.NumFiles())
			}
		}
	})
}
