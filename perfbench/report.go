package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement with its unit and, for timings, how many
// samples it summarizes.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Samples is the number of observations behind Value (0 = a count or
	// a single measurement).
	Samples int
	// Top is the highest percentile with at least ten samples beyond it,
	// and TopValue its value; Top is 0 when there are too few samples.
	Top, TopValue float64
}

// result is what one workload run reports.
type result struct {
	Attempted, Failed int64
	E2E               []metric
	Layers            map[string]float64
	// Checks lists the output checks; a check passed when its Err is nil.
	Checks []check
	// Info holds human-readable lines about the inputs and phases.
	Info []string
}

type check struct {
	Name string
	Err  error
}

func (r *result) add(name, unit string, v float64) {
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: v})
}

// addN adds a metric that is the median of n measurements.
func (r *result) addN(name, unit string, v float64, n int) {
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: v, Samples: n})
}

func (r *result) addDist(name, unit string, d summary, pick func(summary) float64) {
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: pick(d), Samples: d.N, Top: d.TopQ, TopValue: d.Top})
}

// latencies reports the latency metrics: op_* over every operation,
// observe_* over observes of jobs with input files and, when there are
// any, read_* over reads. Only
// observe_p50_us is an end-to-end metric; the rest are printed beside it
// and kept as loadgen.* layer metrics, because on a small shared machine
// their run-to-run spread is too wide for a usable regression bound.
//
// Each percentile is taken per window of consecutive operations (p50Window
// for a p50, p99Window for a p99) and the metric is the median of the
// window values. On a shared machine a neighbour that takes the CPU or the
// memory bandwidth for a while slows every operation in those windows; as
// long as that is less than half of the windows, the median window is a
// calm one, where a percentile over all operations would move with the
// share of slowed ones.
func (r *result) latencies(all, observe, read []float64) {
	for _, m := range []struct {
		prefix string
		vals   []float64
	}{{"op", all}, {"observe", observe}, {"read", read}} {
		if len(m.vals) == 0 {
			continue
		}
		p50 := windowed(m.vals, 0.50, p50Window)
		p99 := windowed(m.vals, 0.99, p99Window)
		s := summarize(m.vals)
		r.addDist(m.prefix+"_p50_us", "us", s, func(summary) float64 { return p50 })
		r.addDist(m.prefix+"_p99_us", "us", s, func(summary) float64 { return p99 })
		if m.prefix != "observe" {
			r.layer("loadgen."+m.prefix+"_p50_us", p50)
		}
		r.layer("loadgen."+m.prefix+"_p99_us", p99)
	}
}

// p50Window and p99Window are the numbers of consecutive operations one
// p50 or p99 is taken over: a p99 needs a thousand for ten samples beyond
// it, a p50 far fewer, so its windows are short and many.
const (
	p50Window = 200
	p99Window = 1000
)

// windowed is the median over consecutive windows of size values (in the
// given order) of each window's q-quantile; with fewer values than one
// window it is their plain q-quantile.
func windowed(vals []float64, q float64, size int) float64 {
	var qs []float64
	w := make([]float64, 0, size)
	for lo := 0; lo+size <= len(vals); lo += size {
		w = append(w[:0], vals[lo:lo+size]...)
		sort.Float64s(w)
		qs = append(qs, rank(w, q))
	}
	if len(qs) == 0 {
		w = append(w[:0], vals...)
		sort.Float64s(w)
		return rank(w, q)
	}
	return median(qs)
}

func (r *result) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = make(map[string]float64)
	}
	r.Layers[name] = v
}

func (r *result) check(name string, err error) {
	r.Checks = append(r.Checks, check{Name: name, Err: err})
}

func (r *result) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if c.Err != nil {
			return false
		}
	}
	return len(r.Checks) > 0
}

func (r *result) e2e(name string) float64 {
	for _, m := range r.E2E {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// summary describes one latency distribution in microseconds. A failed
// operation is recorded as +Inf, so it counts as over every limit.
type summary struct {
	N        int
	P50, P99 float64
	// TopQ is the highest percentile (as a fraction) with at least ten
	// samples beyond it; Top is its value.
	TopQ, Top float64
}

// summarize sorts vals in place and returns their summary. Percentiles use
// the nearest-rank rule.
func summarize(vals []float64) summary {
	s := summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	sort.Float64s(vals)
	s.P50 = rank(vals, 0.50)
	s.P99 = rank(vals, 0.99)
	if len(vals) >= 20 {
		s.TopQ = 1 - 10/float64(len(vals))
		s.Top = rank(vals, s.TopQ)
	}
	return s
}

func rank(sorted []float64, q float64) float64 {
	// The epsilon keeps q*n that should be whole from rounding up.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// fingerprint identifies the machine, toolchain and source tree a result
// came from, so numbers are only compared like with like.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func machineFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     commitID(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks returns the machine's stolen and total CPU time so far, in
// clock ticks, from /proc/stat; both are 0 where that is not available.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return steal, total
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return runtime.GOOS
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return runtime.GOOS + " " + b.String()
}

// commitID is the VCS revision stamped into the binary when it was built
// inside a git work tree, and otherwise a hash of the module's Go sources
// and go.mod files, which identifies the tree just as well for comparing
// runs.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapSampler tracks the peak live Go heap (the heap marked live by the
// most recent GC) while it runs. Sampling reads runtime/metrics, which does
// not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	runtime.GC() // start the phase from a settled heap
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLiveMetric}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler after one last GC, so the heap the phase ended
// with is counted, and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	return float64(h.peak) / (1 << 20)
}

// output is the record printed as the last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
