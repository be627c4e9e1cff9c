package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The host a run measures on is shared, and its speed moves: the same
// fixed work takes up to half again as long in a slow phase as in a
// fast one, and phases last from seconds to minutes, longer than a run.
// Two things move. The CPU runs the same instructions slower, which
// shows in CPU time and wall time alike; and the hypervisor takes the
// vCPU away for stretches, which shows in wall time only.
//
// A run therefore takes calibration marks throughout its measured
// phase. Each times a fixed interpreter loop that lives in the
// benchmark, so no change to the program changes it, in two ways: the
// fastest of calRuns short runs reads the CPU's speed, and one run
// calPace times as long, taken as it comes, reads its pace, speed and
// availability together. CPU times are scaled by the run's mean speed
// and every other time by its mean pace (rates by the inverse), both
// relative to calRef, which makes them seconds at reference speed: the
// speed at which the kernel runs in calRef. The unscaled figures go
// into the record's headline as raw.*.

const (
	calWords = 1 << 12                // kernel memory: 16 KiB, inside L1, whose sets the page offset picks, so where a process's pages land does not matter
	calIters = 300_000                // kernel instructions per short run
	calRuns  = 2                      // short runs per mark, after a warm-up; the fastest reads the speed
	calPace  = 8                      // the pace run is calPace short runs long
	calGap   = 200 * time.Millisecond // least time between marks
	// calRef is the kernel's short-run time that defines reference
	// speed: its time in a fast phase of the 2-vCPU Xeon host the
	// baseline was recorded on. Changing it rescales every end-to-end
	// time, so it stays fixed.
	calRef = 1000 * time.Microsecond
)

// calCode is the kernel's program: register ops, loads, stores and
// taken branches in a fixed pseudo-random order, so the loop exercises
// dispatch, branch prediction and memory much as the simulator does.
var (
	calCode []uint32
	calMem  = make([]uint32, calWords)
	calSink uint32
)

func init() {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		calCode = append(calCode, uint32(rng.Intn(6))<<24|uint32(rng.Intn(8))<<16|uint32(rng.Intn(8))<<8|uint32(rng.Intn(256)))
	}
}

// calKernel runs the calibration program for n instructions.
func calKernel(n int) {
	var r [8]uint32
	r[1] = 12345
	pc := 0
	for i := 0; i < n; i++ {
		ins := calCode[pc]
		a, b, imm := (ins>>16)&7, (ins>>8)&7, ins&0xff
		pc++
		switch ins >> 24 {
		case 0:
			r[a] += r[b] + imm
		case 1:
			r[a] ^= r[b]<<1 | r[b]>>31
		case 2:
			r[a] = calMem[(r[b]*2654435761+imm)&(calWords-1)]
		case 3:
			calMem[(r[a]*40503+imm)&(calWords-1)] = r[b] + uint32(i)
		case 4:
			if r[a]&1 != 0 {
				pc = int(imm)
			}
		case 5:
			r[a] = r[a]*3 + r[b]>>2
		}
		if pc >= len(calCode) {
			pc = 0
		}
	}
	calSink += r[0] + r[1]
}

// hostClock takes a run's calibration marks. A nil clock takes none
// and scales nothing. Its methods are safe for concurrent use.
type hostClock struct {
	mu    sync.Mutex
	last  time.Time     // when the latest mark ended
	speed []float64     // each mark's speed: calRef over the fastest short run
	pace  []float64     // each mark's pace: calRef over the pace run, per short run
	wall  time.Duration // time spent in marks
	cpu   time.Duration // CPU time spent in marks
}

// mark takes a calibration mark unless one ended less than calGap ago.
// It collects the heap first, so no garbage collection of the program's
// runs beside the kernel, and warms the kernel's memory, so what the
// program left in the caches does not count.
func (c *hostClock) mark() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.last) < calGap {
		return
	}
	c0, start := cpuTime(), time.Now()
	runtime.GC()
	calKernel(calIters / 4)
	best := time.Duration(math.MaxInt64)
	for i := 0; i < calRuns; i++ {
		t0 := time.Now()
		calKernel(calIters)
		best = min(best, time.Since(t0))
	}
	t0 := time.Now()
	calKernel(calIters * calPace)
	c.last = time.Now()
	c.speed = append(c.speed, float64(calRef)/float64(best))
	c.pace = append(c.pace, float64(calRef)*calPace/float64(c.last.Sub(t0)))
	c.wall += c.last.Sub(start)
	c.cpu += cpuTime() - c0
}

// spent returns the wall and CPU time spent in marks so far.
func (c *hostClock) spent() (wall, cpu time.Duration) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wall, c.cpu
}

// factors returns the run's mean speed and mean pace: what a CPU time
// and any other time measured in the run are multiplied by to read at
// reference speed. Marks come at even intervals, so their mean is the
// time-average the measured work ran at; the median would not do, as
// the speed is bimodal, a fast and a slow mode in changing proportions.
// Both are 1 without marks.
func (c *hostClock) factors() (speed, pace float64) {
	if c == nil {
		return 1, 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.speed) == 0 {
		return 1, 1
	}
	return sum(c.speed) / float64(len(c.speed)), sum(c.pace) / float64(len(c.pace))
}

// marks returns how many marks the clock has taken.
func (c *hostClock) marks() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.speed)
}
