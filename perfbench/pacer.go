package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is a periodic Linux timerfd read through the runtime's poller. A
// runtime timer (time.Sleep, time.Ticker) overshoots sub-millisecond waits
// by about a millisecond on an idle process, which would swamp the bus's
// own latency; the timerfd wakes the generator within tens of
// microseconds without spinning a core.
type pacer struct {
	f        *os.File
	interval int64 // ns
	start    int64 // clock() when armed; tick k is due at start + k*interval
	buf      [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer(interval time.Duration) (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	p := &pacer{f: os.NewFile(fd, "pacer"), interval: int64(interval)}
	spec := itimerspec{syscall.NsecToTimespec(p.interval), syscall.NsecToTimespec(p.interval)}
	p.start = clock()
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		p.f.Close()
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return p, nil
}

// wait blocks until the next tick and returns how many ticks fell due
// since the previous wait (more than one when the generator ran late).
func (p *pacer) wait() (int64, error) {
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(p.buf[:])), nil
}

func (p *pacer) due(k int64) int64 { return p.start + k*p.interval }

func (p *pacer) close() { p.f.Close() }
