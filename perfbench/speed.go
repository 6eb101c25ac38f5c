package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is a VM on a shared host, and its speed
// moves by a factor of two or more for hours at a time: longer than a
// run, so a median within a run cannot remove it. The moves come with
// little steal time, and the simulator is memory-bound (large
// pointer-rich heaps, 4 KB pages), so the likeliest cause is the cost of
// memory accesses rather than lost CPU time.
//
// The speed probe is a fixed piece of work that does not touch the
// simulator: a dependent random walk over 64 MB, which pays memory latency
// and TLB misses as the simulator's heaps do, plus SHA-256 over 2 MB for
// core speed. The benchmark runs it after every timed operation, for 5%
// of the operation's time and at least once, and scales each end-to-end
// time by refProbeNs over the median probe of the phase it was measured in
// (set-up, cold pass, steady state). Scaled times read as they would on a
// machine whose probe takes refProbeNs. The probe moves only with the
// machine, so a change to the simulator shows in full. The report prints
// the unscaled times as well.

// refProbeNs is the reference machine's probe time, in ns.
const refProbeNs = 25e6

const (
	probeWords = 16 << 20 // 64 MB of uint32
	probeSteps = 1 << 17
	probeHash  = 2 << 20
)

// speedProbe holds the probe's working set outside the Go heap, so the
// probe adds nothing to the simulator's garbage collection.
type speedProbe struct {
	mem    []byte
	chain  []uint32 // a random cyclic permutation: chain[i] is the next index
	buf    []byte
	pos    uint32
	walks  []float64 // ns of each walk
	hashes []float64 // ns of each hash
}

func newSpeedProbe() (*speedProbe, error) {
	n := probeWords*4 + probeHash
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	p := &speedProbe{
		mem:   mem,
		chain: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeWords),
		buf:   mem[probeWords*4:],
	}
	// Sattolo's algorithm: one cycle through every word. The probe is the
	// same work on every run, whatever the workload seed.
	rng := rand.New(rand.NewSource(1))
	for i := range p.chain {
		p.chain[i] = uint32(i)
	}
	for i := len(p.chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.chain[i], p.chain[j] = p.chain[j], p.chain[i]
	}
	for i := range p.buf {
		p.buf[i] = byte(i * 7)
	}
	return p, nil
}

func (p *speedProbe) close() { syscall.Munmap(p.mem) }

// run does the probe's work once.
func (p *speedProbe) run() {
	t0 := time.Now()
	x := p.pos
	for i := 0; i < probeSteps; i++ {
		x = p.chain[x]
	}
	p.pos = x
	t1 := time.Now()
	sum := sha256.Sum256(p.buf)
	p.buf[sum[0]]++ // keep the hash live
	t2 := time.Now()
	p.walks = append(p.walks, float64(t1.Sub(t0)))
	p.hashes = append(p.hashes, float64(t2.Sub(t1)))
}

// probeShare is how long the probe runs after an operation, as a share of
// the operation's time. It runs at least once.
const probeShare = 0.05

// timed runs f, then the probe, and returns f's wall time in ns.
func (p *speedProbe) timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	wall := float64(time.Since(start))
	for budget := wall * probeShare; ; {
		t := time.Now()
		p.run()
		if budget -= float64(time.Since(t)); budget <= 0 {
			break
		}
	}
	return wall, err
}

// mark returns the position of the next probe sample, for scaleSince.
func (p *speedProbe) mark() int { return len(p.walks) }

// scaleSince is the factor that turns wall times measured since mark m
// into times at the reference speed.
func (p *speedProbe) scaleSince(m int) float64 {
	return refProbeNs / (median(p.walks[m:]) + median(p.hashes[m:]))
}
