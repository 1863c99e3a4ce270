package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/trace"
	"filecule/internal/wire"
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opObserve  opKind = iota // submit one job's input files
	opFilecule               // look up the filecule of one file
	opAdvise                 // ask for cache advice on one job's files
	opSummary                // fetch the partition summary
	opScrape                 // scrape /metrics
)

// op is one generated operation. A read names the observe it depends on:
// it targets a file that observe submitted, and is not sent before that
// observe was acknowledged, so no read can miss for lack of ordering.
type op struct {
	kind opKind
	job  int32 // the job observed, or whose files a read targets
	dep  int32 // op index of the observe a read depends on; -1 for none
	// empty marks an observe of a job with no input files, which refines
	// nothing; its latency is kept apart from the other observes'.
	empty bool
}

// Operation states.
const (
	statePending int32 = iota
	stateOK
	stateFailed
)

// schedule drives one phase. In an open loop every op has a due time and is
// sent when due, whatever happened to earlier ops; in a closed loop (due ==
// nil) each connection sends the next op as soon as its window allows.
type schedule struct {
	ops   []op
	due   []int64 // ns after start; nil for a closed loop
	start time.Time

	next   atomic.Int64
	state  []atomic.Int32
	sent   []int64 // ns after start, per op
	done   []int64
	claims atomic.Int64 // ops claimed (attempted)
	// onAck, when set, is called with the running count of acknowledged
	// observes as each one completes.
	onAck func(n int64)
	acked atomic.Int64
}

func newSchedule(ops []op, due []int64) *schedule {
	return &schedule{
		ops:   ops,
		due:   due,
		state: make([]atomic.Int32, len(ops)),
		sent:  make([]int64, len(ops)),
		done:  make([]int64, len(ops)),
	}
}

// claim returns the next op index, or false when every op was claimed.
func (s *schedule) claim() (int, bool) {
	i := int(s.next.Add(1) - 1)
	if i >= len(s.ops) {
		return 0, false
	}
	s.claims.Add(1)
	return i, true
}

// waitDue sleeps until op i is due; flush runs first when there is a wait.
func (s *schedule) waitDue(i int, flush func(), pc *pacer) error {
	if s.due == nil {
		return nil
	}
	if d := time.Until(s.start.Add(time.Duration(s.due[i]))); d > 0 {
		flush()
		return pc.sleep(d)
	}
	return nil
}

// depTimeout bounds how long a read waits for the observe it depends on.
const depTimeout = 30 * time.Second

// waitDep blocks until op i's dependency has an outcome; flush runs first so
// a dependency buffered on this very connection can complete.
func (s *schedule) waitDep(i int, flush func()) {
	d := s.ops[i].dep
	if d < 0 || s.state[d].Load() != statePending {
		return
	}
	flush()
	limit := time.Now().Add(depTimeout)
	for s.state[d].Load() == statePending && time.Now().Before(limit) {
		time.Sleep(20 * time.Microsecond)
	}
}

func (s *schedule) now() int64 { return int64(time.Since(s.start)) }

func (s *schedule) finish(i int, ok bool) {
	s.done[i] = s.now()
	if ok {
		s.state[i].Store(stateOK)
		if s.ops[i].kind == opObserve {
			if n := s.acked.Add(1); s.onAck != nil {
				s.onAck(n)
			}
		}
	} else {
		s.state[i].Store(stateFailed)
	}
}

// phaseStats is what a phase measured.
type phaseStats struct {
	attempted, failed int64
	elapsed           time.Duration
	// Latencies in µs in plan order, timed from the due time (open loop)
	// or from the send (closed loop); failed ops are +Inf. observe holds
	// the observes of jobs with input files, emptyObserve the others.
	observe, emptyObserve, read, scrapes []float64
	all                                  []float64 // every op, in plan order
	rtt                                  []float64 // from send to reply, successful ops
	late                                 []float64 // how late each op was sent, open loop only
}

// collect summarizes a finished phase. Ops never claimed were not
// attempted; claimed ops without a successful reply failed.
func (s *schedule) collect() phaseStats {
	ps := phaseStats{attempted: s.claims.Load()}
	var last int64
	for i := 0; i < int(ps.attempted) && i < len(s.ops); i++ {
		ok := s.state[i].Load() == stateOK
		lat := math.Inf(1)
		if ok {
			from := s.sent[i]
			if s.due != nil {
				from = s.due[i]
			}
			lat = float64(s.done[i]-from) / 1e3
			ps.rtt = append(ps.rtt, float64(s.done[i]-s.sent[i])/1e3)
		} else {
			ps.failed++
		}
		if s.due != nil {
			ps.late = append(ps.late, float64(s.sent[i]-s.due[i])/1e3)
		}
		ps.all = append(ps.all, lat)
		switch o := s.ops[i]; {
		case o.kind == opObserve && o.empty:
			ps.emptyObserve = append(ps.emptyObserve, lat)
		case o.kind == opObserve:
			ps.observe = append(ps.observe, lat)
		case o.kind == opScrape:
			ps.scrapes = append(ps.scrapes, lat)
		default:
			ps.read = append(ps.read, lat)
		}
		last = max(last, s.done[i])
	}
	ps.elapsed = time.Duration(last)
	return ps
}

// collectAll summarizes consecutive phases as one: the counts add up and
// the latencies follow one another in plan order.
func collectAll(phases []*schedule) phaseStats {
	var all phaseStats
	for _, s := range phases {
		ps := s.collect()
		all.attempted += ps.attempted
		all.failed += ps.failed
		all.elapsed += ps.elapsed
		all.observe = append(all.observe, ps.observe...)
		all.emptyObserve = append(all.emptyObserve, ps.emptyObserve...)
		all.read = append(all.read, ps.read...)
		all.scrapes = append(all.scrapes, ps.scrapes...)
		all.all = append(all.all, ps.all...)
		all.rtt = append(all.rtt, ps.rtt...)
		all.late = append(all.late, ps.late...)
	}
	return all
}

// ackedJobs returns the jobs of acknowledged observes.
func (s *schedule) ackedJobs(dst []int32) []int32 {
	for i := range s.ops {
		if s.ops[i].kind == opObserve && s.state[i].Load() == stateOK {
			dst = append(dst, s.ops[i].job)
		}
	}
	return dst
}

// ---- filecule-wire/v1, pipelined ----

// wireTimeout bounds a stalled connection.
const wireTimeout = 60 * time.Second

// runWire drives the schedule over conns pipelined wire connections. Each
// connection has one sender (the generator) and one receiver; at most
// window requests are in flight per connection. Replies come back in
// request order (the protocol is FIFO per connection).
func runWire(s *schedule, addr string, conns, window int, jobs [][]trace.FileID) error {
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := net.DialTimeout("tcp", addr, wireTimeout)
		if err != nil {
			for _, c := range cs[:i] {
				c.Close()
			}
			return err
		}
		cs[i] = c
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2*conns)
	s.start = time.Now()
	for _, conn := range cs {
		inflight := make(chan int, window)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(inflight)
			if err := wireSender(s, conn, inflight, jobs); err != nil {
				errc <- err
				conn.Close()
			}
		}()
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := wireReceiver(s, conn, inflight); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

func wireSender(s *schedule, conn net.Conn, inflight chan<- int, jobs [][]trace.FileID) error {
	pc, err := newPacer()
	if err != nil {
		return err
	}
	defer pc.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	var werr error
	flush := func() {
		if werr == nil && bw.Buffered() > 0 {
			conn.SetWriteDeadline(time.Now().Add(wireTimeout))
			werr = bw.Flush()
		}
	}
	if _, err := bw.WriteString(wire.Magic); err != nil {
		return err
	}
	var buf []byte
	for werr == nil {
		i, ok := s.claim()
		if !ok {
			break
		}
		if err := s.waitDue(i, flush, pc); err != nil {
			return err
		}
		s.waitDep(i, flush)
		o := s.ops[i]
		switch o.kind {
		case opObserve:
			buf = wire.AppendObserveRequest(buf[:0], jobs[o.job])
		case opFilecule:
			buf = wire.AppendFileculeRequest(buf[:0], jobs[o.job][0])
		default:
			return fmt.Errorf("wire: op kind %d has no wire request", o.kind)
		}
		s.sent[i] = s.now()
		if err := trace.WriteChunk(bw, buf); err != nil {
			return err
		}
		select {
		case inflight <- i:
		default:
			flush()
			inflight <- i
		}
		if s.due != nil {
			flush() // an open loop sends each op when due
		}
	}
	flush()
	return werr
}

func wireReceiver(s *schedule, conn net.Conn, inflight <-chan int) error {
	cr := trace.NewChunkReader(bufio.NewReaderSize(conn, 64<<10))
	var rerr error
	for i := range inflight {
		if rerr != nil {
			s.finish(i, false)
			continue
		}
		conn.SetReadDeadline(time.Now().Add(wireTimeout))
		kind, _, err := cr.ReadChunk()
		if err != nil {
			rerr = fmt.Errorf("wire: read reply: %w", err)
			s.finish(i, false)
			continue
		}
		want := byte(wire.KindObserveResult)
		if s.ops[i].kind == opFilecule {
			want = wire.KindFileculeResult
		}
		s.finish(i, kind == want)
	}
	return rerr
}

// ---- HTTP/JSON, one request in flight per connection ----

// worker sends one op over its own connection and waits for the reply.
type worker interface {
	do(op) error
	Close() error
}

// httpRequester opens HTTP/1.1 keep-alive connections to a server and
// builds each op's request. The client is a minimal one on purpose: one
// goroutine writes the request and reads the response, so the latency
// measured is the server's, not a client transport's goroutine hand-offs.
type httpRequester struct {
	addr     string
	jobs     [][]trace.FileID
	capacity int64
}

func (h *httpRequester) dial() (worker, error) {
	conn, err := net.DialTimeout("tcp", h.addr, wireTimeout)
	if err != nil {
		return nil, err
	}
	return &httpWorker{h: h, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

type httpWorker struct {
	h    *httpRequester
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer
}

func (w *httpWorker) Close() error { return w.conn.Close() }

func (w *httpWorker) do(o op) error {
	method, path := http.MethodGet, ""
	body := &w.body
	body.Reset()
	switch o.kind {
	case opObserve:
		method, path = http.MethodPost, "/v1/jobs"
		body.WriteString(`{"files":`)
		appendIDs(body, w.h.jobs[o.job])
		body.WriteString(`}`)
	case opFilecule:
		path = "/v1/filecules/" + strconv.Itoa(int(w.h.jobs[o.job][0]))
	case opAdvise:
		method, path = http.MethodPost, "/v1/cache/advise"
		fmt.Fprintf(body, `{"capacityBytes":%d,"files":`, w.h.capacity)
		appendIDs(body, w.h.jobs[o.job])
		body.WriteString(`}`)
	case opSummary:
		path = "/v1/partition/summary"
	case opScrape:
		path = "/metrics"
	}
	w.conn.SetDeadline(time.Now().Add(wireTimeout))
	fmt.Fprintf(w.bw, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", method, path, w.h.addr, body.Len())
	if body.Len() > 0 {
		w.bw.WriteString("Content-Type: application/json\r\n")
	}
	w.bw.WriteString("\r\n")
	w.bw.Write(body.Bytes())
	if err := w.bw.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.Close {
		return fmt.Errorf("%s %s: server closed the connection", method, path)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return nil
}

func appendIDs(b *bytes.Buffer, ids []trace.FileID) {
	b.WriteByte('[')
	for k, f := range ids {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(f)))
	}
	b.WriteByte(']')
}

// runWorkers drives the schedule from conns workers, each holding one
// connection (from dial) and one request in flight. It returns the first
// failure's error; failed ops are also recorded in the schedule.
func runWorkers(s *schedule, conns int, dial func() (worker, error)) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) { once.Do(func() { first = err }) }
	workers := make([]worker, conns)
	for i := range workers {
		w, err := dial()
		if err != nil {
			for _, w := range workers[:i] {
				w.Close()
			}
			return err
		}
		workers[i] = w
	}
	s.start = time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			pc, err := newPacer()
			if err != nil {
				fail(err)
				return
			}
			defer pc.Close()
			for {
				i, ok := s.claim()
				if !ok {
					return
				}
				if err := s.waitDue(i, func() {}, pc); err != nil {
					s.finish(i, false)
					fail(err)
					return
				}
				s.waitDep(i, func() {})
				s.sent[i] = s.now()
				err := w.do(s.ops[i])
				s.finish(i, err == nil)
				if err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// errNoJobs reports a schedule that ran out of input jobs.
var errNoJobs = errors.New("input trace has too few jobs for the schedule")
