package main

import "time"

// The host this benchmark runs on is shared, and the speed it gives one
// process drifts by a fifth or more over seconds to minutes. Raw host
// times then measure the neighbours as much as the program. So the
// benchmark runs a fixed reference kernel every refEveryNs of host
// time, between its calls into the program, and expresses the host time
// of those calls in reference seconds: each call's time is scaled by
// refNominalNs over the kernel time measured on either side of it. A
// reference second is the time of 1e9/refNominalNs kernel runs, so a
// machine that runs the kernel in refNominalNs reads its host seconds
// unchanged.
//
// The kernel is arithmetic on four independent chains held in
// registers. It keeps several execution units busy at once, as the
// simulator's code does, so it slows down when a neighbour shares the
// core, which a chain of dependent loads barely notices. It touches no
// memory, so nothing the program leaves in any cache changes its time,
// and a slower program cannot make its own reference look slower.

const (
	refIters     = 1 << 14 // iterations per timed pass
	refPasses    = 3       // timed passes; the kernel time is their median
	refNominalNs = 40_000  // kernel time that defines a reference second
	refEveryNs   = 20e6    // host time between kernel runs
)

// refSink keeps the kernel's result live so the compiler cannot drop
// the work.
var refSink uint64

// refPass runs the kernel's fixed work once.
func refPass() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c ^= c << 13
		c ^= c >> 7
		d = d*3 + a>>7
	}
	refSink += a + b + c + d
}

// refKernelNs runs refPasses timed passes of the kernel and returns the
// median in nanoseconds.
func refKernelNs() float64 {
	var ns [refPasses]float64
	for i := range ns {
		t := now()
		refPass()
		ns[i] = float64(now().Sub(t))
	}
	return median(ns[:])
}

// refClock tracks the reference kernel across an episode: when it last
// ran, the time it took, and the host times measured since, which wait
// to be scaled until the next kernel run brackets them.
type refClock struct {
	kernel  func() float64 // refKernelNs; a fixed stand-in in tests
	lastAt  time.Time
	lastNs  float64
	pending []float64
	kernels []float64 // every kernel time measured
}

func newRefClock() *refClock { return &refClock{kernel: refKernelNs} }

// run times the kernel and returns the factor that turns the host
// nanoseconds measured since its previous run into reference
// nanoseconds: refNominalNs over the mean of the two kernel times.
func (c *refClock) run() float64 {
	ns := c.kernel()
	prev := c.lastNs
	if prev == 0 {
		prev = ns
	}
	c.lastAt, c.lastNs = now(), ns
	c.kernels = append(c.kernels, ns)
	return refNominalNs / ((prev + ns) / 2)
}

// add records one host time; due reports whether refEveryNs has passed
// since the kernel last ran.
func (c *refClock) add(ns float64) (due bool) {
	c.pending = append(c.pending, ns)
	return float64(now().Sub(c.lastAt)) >= refEveryNs
}

// flush runs the kernel and appends the pending host times, scaled to
// reference nanoseconds, to dst.
func (c *refClock) flush(dst []float64) []float64 {
	if len(c.pending) == 0 {
		return dst
	}
	f := c.run()
	for _, ns := range c.pending {
		dst = append(dst, ns*f)
	}
	c.pending = c.pending[:0]
	return dst
}
