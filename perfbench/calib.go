package main

import "time"

// Host-speed calibration.
//
// The 2-vCPU virtual machines this benchmark runs on change speed by up to
// a half from one minute to the next, with nothing else running in the
// machine: a busy loop's rate moves the same way, and process CPU time
// moves with wall time, so neither longer runs nor CPU-time clocks remove
// it. Every op is therefore timed between calibration slices: a fixed
// kernel in the benchmark's own code, which no change to the repository
// can make faster or slower. The slices measure the host's speed at the
// time of the op, and every reported time is scaled to a reference speed
// (hostSpeed). A change that makes the program faster or slower moves the
// op's wall time and not the slices, so it shows in full; a host that is
// slower for a while moves both, and most of it cancels. The raw
// wall-clock figures are printed beside the scaled ones.

// calIters is the calibration slice's length in kernel steps (about 2.5 ms
// on the reference host).
const calIters = 100_000

// refCalNS is the reference speed: a calibration slice of 2.5 ms. On the
// "Intel(R) Xeon(R) Processor" 2-vCPU virtual machines the benchmark was
// tuned on (Go 1.24), a run's median slice ran 0.65 to 1.4 times as fast
// as that.
// Scaled times are the times an op would take at the reference speed.
const refCalNS = 2.5e6

// calTable is the kernel's working set: 4 MiB, larger than a core's
// private caches, so the slices also feel contention for the shared
// cache.
var calTable = make([]uint32, 1<<20)

var calSink uint64

// calibrate runs one calibration slice and returns its wall time in ns.
// The kernel is a small register machine driven by a xorshift generator:
// data-dependent branches, register traffic and random table reads and
// writes, like the simulator's mix, and no allocation.
func calibrate() float64 {
	t0 := time.Now()
	var regs [16]uint64
	x := uint64(88172645463325252)
	const mask = 1<<20 - 1
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a, b := (x>>8)&15, (x>>12)&15
		switch x & 7 {
		case 0:
			regs[a] += regs[b] + 1
		case 1:
			regs[a] ^= regs[b] >> 3
		case 2:
			if regs[a] > regs[b] {
				regs[a] -= regs[b]
			} else {
				regs[b] -= regs[a]
			}
		case 3:
			regs[a] += uint64(calTable[(x>>20)&mask])
		case 4:
			calTable[(regs[b]^x)&mask] += uint32(regs[a])
		case 5:
			regs[a] = regs[a]*31 + regs[b]
		case 6:
			if x&0x100 != 0 {
				regs[a]++
			}
		default:
			regs[a], regs[b] = regs[b], regs[a]
		}
	}
	calSink += regs[0]
	return float64(time.Since(t0))
}

// calLog accumulates calibration slices: their count, total kernel time,
// and the wall time spent taking them.
type calLog struct {
	n     int
	sumNS float64
	spent time.Duration
}

// setupCal is the set-up phase's log: a child calibrates at its start,
// after every warm-up op, and before it reports READY.
var setupCal calLog

func (c *calLog) take() {
	t0 := time.Now()
	c.sumNS += calibrate()
	c.n++
	c.spent += time.Since(t0)
}

// calWindow is how many calibration slices on each side of an op its
// host speed is measured from. One slice is noisy on its own; the host's
// speed drifts over seconds, so a few neighbouring slices still see the
// op's conditions.
const calWindow = 2

// opSpeeds returns the host speed of every op of a timed phase, where op i
// ran between slices[i] and slices[i+1]: from the mean of the calWindow
// slices before it and the calWindow after it (fewer at the ends).
func opSpeeds(slices []float64) []float64 {
	out := make([]float64, len(slices)-1)
	for i := range out {
		lo, hi := max(0, i+1-calWindow), min(len(slices), i+1+calWindow)
		sum := 0.0
		for _, ns := range slices[lo:hi] {
			sum += ns
		}
		out[i] = hostSpeed(sum / float64(hi-lo))
	}
	return out
}

// hostSpeed is the host's speed relative to the reference host, from a
// calibration slice time of ns: above 1 when the host runs faster. A wall
// time times hostSpeed is the time the same work takes at reference speed.
func hostSpeed(ns float64) float64 {
	return refCalNS / ns
}
