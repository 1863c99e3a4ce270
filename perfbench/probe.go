package main

import (
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/trace"
	"filecule/internal/wire"
)

// The probes below wrap the program's public seams from outside: the
// listener (and so every connection) a server is given to serve on, the
// wire.Backend of the wire.Server from Server.WireServer, and the handler
// from Server.Handler. Each only counts and times; none changes what
// passes through.

// connStats counts socket calls and bytes on the server side of every
// accepted connection.
type connStats struct {
	reads, writes     atomic.Int64
	bytesIn, bytesOut atomic.Int64
	writeNs           atomic.Int64
}

type probeListener struct {
	net.Listener
	st *connStats
}

func (l probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, st: l.st}, nil
}

type probeConn struct {
	net.Conn
	st *connStats
}

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	return n, err
}

func (c *probeConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.st.writeNs.Add(int64(time.Since(start)))
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	return n, err
}

// backendProbe times each Observe on a wire.Backend.
type backendProbe struct {
	wire.Backend
	mu  sync.Mutex
	obs []float64 // µs per call
}

func (b *backendProbe) Observe(files []trace.FileID) error {
	start := time.Now()
	err := b.Backend.Observe(files)
	d := float64(time.Since(start)) / 1e3
	b.mu.Lock()
	b.obs = append(b.obs, d)
	b.mu.Unlock()
	return err
}

// medianUs is the median Observe time in µs.
func (b *backendProbe) medianUs() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.obs) == 0 {
		return 0
	}
	return median(b.obs)
}

// routeStats accumulates handler time per route.
type routeStats struct {
	n, ns atomic.Int64
}

// handlerProbe times the root HTTP handler per route.
type handlerProbe struct {
	next   http.Handler
	routes map[string]*routeStats
}

func newHandlerProbe(next http.Handler) *handlerProbe {
	h := &handlerProbe{next: next, routes: make(map[string]*routeStats)}
	for _, r := range []string{"observe", "filecule", "advise", "summary", "scrape", "other"} {
		h.routes[r] = &routeStats{}
	}
	return h
}

func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/jobs":
		return "observe"
	case strings.HasPrefix(p, "/v1/filecules/"):
		return "filecule"
	case p == "/v1/cache/advise":
		return "advise"
	case p == "/v1/partition/summary":
		return "summary"
	case p == "/metrics":
		return "scrape"
	}
	return "other"
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	rs := h.routes[routeOf(r)]
	rs.ns.Add(int64(time.Since(start)))
	rs.n.Add(1)
}

// meanUs returns the mean handler time of a route in microseconds.
func (h *handlerProbe) meanUs(route string) float64 {
	rs := h.routes[route]
	if n := rs.n.Load(); n > 0 {
		return float64(rs.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// timedSource wraps a trace.Source and times each Next call: the decode
// of one job.
type timedSource struct {
	trace.Source
	decodeNs, jobs int64
}

func (s *timedSource) Next() (*trace.Job, error) {
	start := time.Now()
	j, err := s.Source.Next()
	s.decodeNs += int64(time.Since(start))
	if err == nil {
		s.jobs++
	}
	return j, err
}
