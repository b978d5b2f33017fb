package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The recording machine is a 2-vCPU VM on a shared host. What its neighbours
// do to it is memory-system contention: the same training chunk takes 340 ms
// or 480 ms depending on the minute, a register-only loop run next to it does
// not move (±1%), and a loop that streams a few MiB moves with the chunk. So
// the benchmark runs such a loop — the memory reference — after every set-up
// and every chunk and states its two timing metrics per unit of reference
// time instead of per second of a clock whose speed the neighbours set. See
// README.md, "The memory reference".
const (
	// memRefFloats is one goroutine's buffer: 4 MiB, the size of a core's L2,
	// so the passes run against L2 misses and the shared L3.
	memRefFloats = 1 << 20
	memRefPasses = 6
	// memRefQuietSec is what one pass takes on the recording machine when the
	// neighbours are quiet. It only fixes the scale of images_per_s and
	// setup_s, so that they read as seconds of a quiet machine; both sides of
	// any comparison are scaled by the same constant.
	memRefQuietSec = 0.006
)

// memRef holds the reference's buffers, one per P. They are mapped outside
// the Go heap: eight live MiB would triple the collector's heap goal for the
// smaller workloads and so change the pacing of the program under test.
type memRef struct {
	raw [procs][]byte
	buf [procs][]float32
}

func newMemRef() (*memRef, error) {
	m := &memRef{}
	for g := range m.buf {
		raw, err := syscall.Mmap(-1, 0, 4*memRefFloats, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			m.close()
			return nil, err
		}
		m.raw[g] = raw
		m.buf[g] = unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), memRefFloats)
		for i := range m.buf[g] {
			m.buf[g][i] = 1 // the fixed point of pass: no denormals, and every page resident
		}
	}
	return m, nil
}

// residentMiB is what the buffers add to the process's resident set.
func (m *memRef) residentMiB() float64 { return float64(procs*4*memRefFloats) / (1 << 20) }

// pass streams every buffer memRefPasses times, one goroutine per P as the
// workloads run, and returns how long that took.
func (m *memRef) pass() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range m.buf {
		wg.Add(1)
		go func(b []float32) {
			defer wg.Done()
			for p := 0; p < memRefPasses; p++ {
				for i := range b {
					b[i] = b[i]*0.999 + 0.001
				}
			}
		}(m.buf[g])
	}
	wg.Wait()
	return time.Since(t0)
}

func (m *memRef) close() {
	for g, raw := range m.raw {
		if raw != nil {
			syscall.Munmap(raw)
			m.raw[g], m.buf[g] = nil, nil
		}
	}
}
