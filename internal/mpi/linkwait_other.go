//go:build !linux

package mpi

import "time"

// sleepUntil blocks the calling goroutine until the deadline has passed, on
// the runtime timer: the portable stand-in for linkwait_linux.go.
func sleepUntil(deadline time.Time) { time.Sleep(time.Until(deadline)) }
