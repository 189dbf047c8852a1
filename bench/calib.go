package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"runtime"
	"time"
)

// refIPS is the reference machine speed in calibration-kernel iterations
// per second: a round figure for the 2-core x86-64 machine (Go 1.24) the
// committed baseline was measured on, where single slices ranged from
// about 180,000 to 280,000 and a run's median from 175,000 to 265,000.
// Every timing metric is reported as it would read on a machine running
// the kernel at exactly this rate; it must not change between the commits
// a comparison measures.
const refIPS = 220000

// sliceDuration is the length of one calibration slice, and sliceEvery
// the amount of work between two slices.
const (
	sliceDuration = 150 * time.Millisecond
	sliceEvery    = time.Second
)

// kernel is the calibration workload: fixed standard-library code — a
// SHA-256 digest of a 4 KiB block plus a 1024-bit big.Int multiply and
// divide — on inputs that never change, so every iteration does the same
// work and its rate measures only how fast the machine is right now.
type kernel struct {
	block     [4096]byte
	a, b, c   big.Int
	prod, quo big.Int
}

func newKernel() *kernel {
	k := &kernel{}
	seed := sha256.Sum256([]byte("calibration"))
	for i := 0; i < len(k.block); i += len(seed) {
		seed = sha256.Sum256(seed[:])
		copy(k.block[i:], seed[:])
	}
	k.a.SetBytes(k.block[0:128])
	k.b.SetBytes(k.block[128:256])
	k.c.SetBytes(k.block[256:320])
	return k
}

// iterate runs one iteration and returns a digest of its results, which
// is identical on every call.
func (k *kernel) iterate() uint64 {
	sum := sha256.Sum256(k.block[:])
	k.prod.Mul(&k.a, &k.b)
	k.quo.Quo(&k.prod, &k.c)
	return binary.LittleEndian.Uint64(sum[:8]) ^ k.quo.Uint64()
}

// calibrator owns the calibration slices of one run. Slices are taken
// between set-ups and between measured units, about once per sliceEvery of
// work, and the whole run is normalised by their median: the median of
// twenty-odd slices follows the machine's speed over the run while a
// single noisy slice cannot move it.
type calibrator struct {
	k        *kernel
	slices   []float64 // iterations per second, in measurement order
	lastTake time.Time
	sink     uint64
}

func newCalibrator() *calibrator { return &calibrator{k: newKernel()} }

// slice measures the kernel for sliceDuration, after a GC so the heap the
// workload left behind cannot slow the kernel.
func (c *calibrator) slice() {
	runtime.GC()
	start := time.Now()
	n := 0
	for {
		for i := 0; i < 16; i++ {
			c.sink ^= c.k.iterate()
		}
		n += 16
		if el := time.Since(start); el >= sliceDuration {
			c.slices = append(c.slices, float64(n)/el.Seconds())
			c.lastTake = time.Now()
			return
		}
	}
}

// maybeSlice takes a slice once sliceEvery has passed since the last one.
func (c *calibrator) maybeSlice() {
	if time.Since(c.lastTake) >= sliceEvery {
		c.slice()
	}
}

// speed is the machine's speed over the run relative to the reference.
func (c *calibrator) speed() float64 { return median(c.slices) / refIPS }

// normDuration converts a duration measured at the given relative speed
// to what it would take on the reference machine; normRate does the same
// for a rate. Both are the identity at speed 1.
func normDuration(d, speed float64) float64 { return d * speed }
func normRate(r, speed float64) float64     { return r / speed }
