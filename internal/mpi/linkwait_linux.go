//go:build linux

package mpi

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A goroutine parked on a runtime timer is woken on time whenever some P is
// scheduling — timers are checked at every scheduling point — and late when
// every P is idle: the one thread left watching sleeps in the netpoller's
// epoll_wait, whose timeout counts whole milliseconds and rounds a shorter
// one up, so time.Sleep(50µs) and time.Sleep(200µs) both come back after
// ≈ 1.1 ms and a longer sleep overshoots by up to the same tick. An exchange
// whose ranks all wait on a charged hop is exactly that idle process.
//
// What ends an epoll_wait on time is a file descriptor becoming ready, so a
// link wait arms a kernel timer — a timerfd the runtime's poller watches — to
// expire as its runtime timer does: the poller returns, finds the timer due
// and runs it. Nobody reads the descriptor; arming it again clears it. The
// goroutine itself still parks on the runtime timer, holding neither a thread
// nor a P, so any number of ranks wait at once on any GOMAXPROCS and a wait
// costs one non-blocking system call.

// linkTimer is one such kernel timer: a CLOCK_MONOTONIC timerfd in
// non-blocking mode, which is what makes os.NewFile hand it to the poller.
// The File is kept for that registration and to close the descriptor when
// the pool drops the timer; fd is kept beside it because File.Fd would put
// the descriptor back into blocking mode.
type linkTimer struct {
	fd int
	f  *os.File
}

// linkTimers holds the idle timers, one per wait in flight at the peak. A nil
// entry means the kernel refused one; waits then run on the runtime timer
// alone.
var linkTimers = sync.Pool{New: func() any {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return (*linkTimer)(nil)
	}
	return &linkTimer{fd: int(fd), f: os.NewFile(fd, "mpi link timer")}
}}

// pokeAfter is how long after the runtime timer the kernel timer expires: a
// poller woken before the runtime timer is due would go back to sleep for its
// whole tick.
const pokeAfter = 10 * time.Microsecond

// sleepUntil blocks the calling goroutine until the monotonic deadline has
// passed — never less, and within the thread wake-up latency (≈ 0.1 ms) of it
// whether the process is busy or idle. It does not spin.
func sleepUntil(deadline time.Time) {
	t := linkTimers.Get().(*linkTimer)
	for left := time.Until(deadline); left > 0; left = time.Until(deadline) {
		if t != nil {
			// struct itimerspec: no interval, first expiry in left+pokeAfter.
			spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(left + pokeAfter))}
			// Arming cannot block and a failure only costs precision, so
			// neither the scheduler nor the caller hears of it.
			syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		}
		time.Sleep(time.Until(deadline))
	}
	linkTimers.Put(t)
}
