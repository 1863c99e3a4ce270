//go:build !linux

package main

import "time"

// pacer sleeps until an op is due. Outside Linux it falls back to Go's
// timers, which may wake late; loadgen.late_p99_us shows by how much.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) Close() error { return nil }
