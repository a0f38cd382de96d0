package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration loop. On a shared host the program's speed drifts with
// what the neighbours run: a job can take 1.6 times as long for a few
// seconds, and whole minutes can run slow. A fixed computation owned by the
// harness is timed after every timed job (and before the first); each job's
// host time is divided by the mean of the two loop times around it and
// multiplied by refLoop. The end-to-end timings are thus the time the job
// would take on a host where the loop takes refLoop, and a drift that slows
// the loop as much as the job cancels out. The loop mixes what the
// simulator does: random reads and writes over a working set larger than a
// core's cache, data-dependent branches and floating-point maths, on as many
// goroutines as GOMAXPROCS. It allocates next to nothing, so the garbage
// collector's work, and with it the program's heap, does not reach its time.
// Its working set is mapped outside the Go heap, so it does not move the
// program's garbage-collection goal either; it adds 2 MiB per goroutine to
// the process's resident set.

// refLoop is the loop's time on an idle 2-vCPU, 2 GHz virtual machine, the
// host the bounds were set on.
const refLoop = 15 * time.Millisecond

const (
	calibWords = 1 << 18 // per goroutine: 2 MiB
	calibIters = 900_000 // per goroutine
)

type calibrator struct {
	mem  []byte        // the working sets, mapped outside the Go heap
	bufs [][]uint64    // one working set per goroutine
	out  []float64     // each goroutine's result, kept so the work is not elided
	last time.Duration // the latest loop time
	raw  []float64     // every loop time, ms
}

func newCalibrator() (*calibrator, error) {
	n := runtime.GOMAXPROCS(0)
	mem, err := syscall.Mmap(-1, 0, n*calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{mem: mem, out: make([]float64, n)}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n*calibWords)
	for g := 0; g < n; g++ {
		c.bufs = append(c.bufs, words[g*calibWords:(g+1)*calibWords])
	}
	c.mark()
	return c, nil
}

func (c *calibrator) close() {
	c.bufs = nil
	_ = syscall.Munmap(c.mem) // fails only for a range that was never mapped
}

// mark times the loop and makes it the reference for the next scale call.
func (c *calibrator) mark() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range c.bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c.out[g] = calibWork(c.bufs[g], uint64(g)+1)
		}(g)
	}
	wg.Wait()
	c.last = time.Since(t0)
	c.raw = append(c.raw, float64(c.last)/1e6)
}

// scale times the loop again and returns the factor that turns the host
// time of what ran since the previous mark into reference time.
func (c *calibrator) scale() float64 {
	before := c.last
	c.mark()
	return 2 * float64(refLoop) / float64(before+c.last)
}

// calibWork is one goroutine's share of the loop: xorshift-driven accesses
// to mem, a branch on the random bits, and floating-point work.
func calibWork(mem []uint64, x uint64) float64 {
	mask := uint64(len(mem) - 1)
	x *= 0x9E3779B97F4A7C15
	var acc uint64
	var regs [8]uint64
	f := 1.0
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		mem[j] += x
		acc += mem[(j*7+1)&mask]
		switch x >> 61 {
		case 0:
			regs[x&7] += acc
		case 1:
			regs[x&7] ^= regs[(x>>3)&7]
		case 2:
			regs[x&7] = regs[(x>>3)&7] << 1
		case 3:
			f = f*0.999 + math.Exp(-float64(x&1023)/256)
		case 4:
			regs[x&7] -= x
		case 5:
			if regs[(x>>3)&7]&1 == 0 {
				acc++
			}
		case 6:
			f += math.Sqrt(float64(x & 0xffff))
		default:
			regs[x&7] |= acc
		}
	}
	return f + float64(acc+regs[0]+regs[7])
}
