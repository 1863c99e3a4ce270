package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until an op is due. Go's own timers wake up to a
// millisecond late on Linux (the scheduler's epoll wait has millisecond
// resolution), which would dominate the latencies an open loop measures at
// sub-millisecond spacing. A timerfd fires through the network poller
// instead, with the kernel's high-resolution timer, so the wait neither
// holds a P nor oversleeps.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) Close() error { return p.f.Close() }
