package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// arrivalTimer wakes the open-loop generator at each intended send time.
//
// A Go timer wakes a parked runtime only at millisecond granularity on
// Linux (the netpoller's epoll timeout is in milliseconds), so nearly
// every arrival would be up to 1 ms late. Sleeping in the kernel on a
// locked thread is precise but keeps the thread's P while it sleeps:
// the request goroutine just started sits on that P until sysmon takes
// it back, which can be several milliseconds when the process is mostly
// idle. A timerfd read through the netpoller has neither defect: the
// generator goroutine parks without holding a P, and the expiry is a
// poller event, delivered at once rather than at the next millisecond.
type arrivalTimer struct {
	fd int // raw descriptor: (*os.File).Fd would make f blocking
	f  *os.File
}

const clockMonotonic = 1

func newArrivalTimer() (*arrivalTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &arrivalTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil parks the calling goroutine until t; it returns at once if
// t has passed.
func (a *arrivalTimer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec {it_interval, it_value}: one-shot, relative.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := a.f.Read(expirations[:])
	return err
}

func (a *arrivalTimer) close() { a.f.Close() }
