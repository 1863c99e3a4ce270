package server

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

// TestLoadGenReplay is the in-repo miniature of `filecule-serve -selftest`:
// boot the server on a loopback port, replay a synthetic trace from
// concurrent clients, and require a partition byte-identical to batch
// identification plus live metrics. Run under -race this also exercises the
// full network path concurrently.
func TestLoadGenReplay(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: tr.Files, ShutdownGrace: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	gen := &LoadGen{BaseURL: "http://" + addr.String(), Clients: 4, BatchSize: 3}
	rep, err := gen.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Jobs != len(tr.Jobs) {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Latency.N == 0 || rep.JobsPerSec() <= 0 {
		t.Errorf("report lacks latency/throughput: %+v", rep)
	}
	if !strings.Contains(rep.String(), "jobs/s") {
		t.Errorf("report string = %q", rep.String())
	}

	want, err := PartitionJSON(core.Identify(tr), int64(len(tr.Jobs)), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(do(s, "GET", "/v1/partition", "").Body.String())
	if got != string(want) {
		t.Error("served partition differs from batch identification after concurrent replay")
	}

	if s.Metrics().Requests() == 0 {
		t.Error("no requests recorded in metrics")
	}

	// Graceful shutdown must drain and return nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

func TestLoadGenReportsServerErrors(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	// A server with an empty catalog except one file rejects most jobs.
	s := New(Config{Catalog: tr.Files[:1]})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	go func() { _ = s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	gen := &LoadGen{BaseURL: "http://" + addr.String(), Clients: 2}
	rep, err := gen.Replay(tr)
	if err == nil {
		t.Fatalf("expected replay errors, got %+v", rep)
	}
	if rep.Errors == 0 {
		t.Errorf("report shows no errors: %+v", rep)
	}
}

// trackingListener counts accepted connections and how many of them the
// server has closed, and signals each accept.
type trackingListener struct {
	net.Listener
	accepted chan struct{}
	open     sync.WaitGroup
}

type trackedConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *trackedConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	select {
	case l.accepted <- struct{}{}:
	default:
	}
	return &trackedConn{Conn: c, done: l.open.Done}, nil
}

func listenTracking(t *testing.T) *trackingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &trackingListener{Listener: l, accepted: make(chan struct{}, 1)}
}

// waitGroupWithin reports whether wg reaches zero within d.
func waitGroupWithin(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestLoadGenReleasesConnections pins the client side of graceful
// shutdown: once Replay returns, the loadgen has closed its keep-alive
// connections, so the server sees every one of them end well before its
// idle timeout.
func TestLoadGenReleasesConnections(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: tr.Files})
	l := listenTracking(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = s.Run(ctx, l) }()

	gen := &LoadGen{BaseURL: "http://" + l.Addr().String(), Clients: 3}
	if _, err := gen.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if !waitGroupWithin(&l.open, 5*time.Second) {
		t.Fatal("loadgen left keep-alive connections open after Replay returned")
	}
}

// TestRunShutdownClosesUnusedConns pins the server side: a client that
// dialled but never sent a request must not hold Run's graceful shutdown
// toward ShutdownGrace (http.Server would wait 5 s on such a connection).
func TestRunShutdownClosesUnusedConns(t *testing.T) {
	s := New(Config{ShutdownGrace: 20 * time.Second})
	l := listenTracking(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()

	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	<-l.accepted

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("shutdown took %v with one unused connection open", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown stalled on an unused connection")
	}
	if !waitGroupWithin(&l.open, 5*time.Second) {
		t.Error("server left the unused connection open after shutdown")
	}
}
