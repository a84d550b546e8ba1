package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine under the benchmark is a few cores of a shared host, and
// what its neighbours do to the caches moves the CPU time of ordinary Go
// code — the daemon's, the loader's, anything that touches memory — by a
// third and more, in episodes that last from seconds to many minutes
// (register-only arithmetic barely moves). A CPU-time metric taken
// as measured therefore mostly reports the neighbours: over ten runs of
// the same code, cpu_s_per_mrec spread 17–26% by workload.
//
// hostProbe measures that factor beside the workload: every probeEvery it
// runs a fixed unit of memory-touching work (map updates, a sort, small
// allocations — benchmark-owned code no later PR changes) on a thread of
// its own and reads what the unit cost in thread CPU time, which a
// preemption inside the guest does not inflate and the host's slowdown
// does. The mean cost over an interval, over nominalUnit, is the
// interval's slowdown; time-based metrics are reported divided by it, as
// at nominal host speed. Measured over the same ten runs the unit's cost
// tracks daemon CPU per record with correlation 0.91–0.99, and the spread
// of the normalised figure is 3–6%.
type hostProbe struct {
	quit chan struct{}
	done chan struct{}

	// owned by the probe goroutine until done closes
	table map[uint64]uint64
	keys  []uint64
	x     uint64
	units int
	cost  time.Duration
	err   error
}

const (
	// probeEvery is the probe's period: one ~1 ms unit per 50 ms is 2% of
	// one core, and 240 units in a 12 s interval put the mean's sampling
	// error near 2%.
	probeEvery = 50 * time.Millisecond
	// nominalUnit is the unit's cost at nominal host speed. It only fixes
	// the scale of the normalised metrics: this box ran the unit in
	// 0.77–1.24 ms over the afternoon it was sized on.
	nominalUnit = time.Millisecond
)

// threadCPU is the calling thread's CPU time so far. The syscall package
// has no clock_gettime, hence the raw call.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// startHostProbe starts probing; stop ends it.
func startHostProbe() *hostProbe {
	p := &hostProbe{
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		table: make(map[uint64]uint64),
		keys:  make([]uint64, 2048),
		x:     1,
	}
	go p.run()
	return p
}

func (p *hostProbe) run() {
	defer close(p.done)
	// Thread CPU time is only the unit's if nothing else runs on the thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		before, err := threadCPU()
		if err != nil {
			p.err = err
			return
		}
		p.unit()
		after, err := threadCPU()
		if err != nil {
			p.err = err
			return
		}
		p.units++
		p.cost += after - before
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
	}
}

// unit is the fixed work: 8192 updates of a 16K-key map, filling and
// sorting 2048 keys, 512 small allocations.
func (p *hostProbe) unit() {
	x := p.x
	for i := 0; i < 8192; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.table[x>>50] += x
	}
	for i := range p.keys {
		x = x*6364136223846793005 + 1442695040888963407
		p.keys[i] = x
	}
	sort.Slice(p.keys, func(i, j int) bool { return p.keys[i] < p.keys[j] })
	var blocks [][]byte
	for i := 0; i < 512; i++ {
		blocks = append(blocks, make([]byte, 64+i%64))
	}
	p.x = x + uint64(len(blocks))
}

// stop ends the probe and returns the interval's slowdown: the mean unit
// cost over nominalUnit.
func (p *hostProbe) stop() (float64, error) {
	close(p.quit)
	<-p.done
	if p.err != nil {
		return 0, p.err
	}
	return float64(p.cost) / float64(p.units) / float64(nominalUnit), nil
}
