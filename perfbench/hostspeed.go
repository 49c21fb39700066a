package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by up to about
// twofold over minutes, as other tenants load the machine's cores, caches
// and memory. Such a drift moves every timing of a run together, so two
// runs of the same code minutes apart can disagree by more than any bound
// worth gating on. hostSpeed measures the drift with work of the
// benchmark's own, which no change to the simulator can speed up or slow
// down, and the end-to-end timings are reported at a fixed reference
// speed: each is scaled by how much slower or faster than nominal that
// work ran during the same run.

// hostWorkIters and hostWorkWords size one probe: GOMAXPROCS goroutines
// together make hostWorkIters dependent, data-driven loads and stores
// with branches, each over its own table of hostWorkWords words (256 KiB,
// which stays in the core's own caches, so the probe times the core and
// not where the kernel happened to place the table).
const (
	hostWorkIters  = 800_000
	hostWorkWords  = 1 << 16
	hostWorkChunks = 32
)

// hostNominal is the reference time of one probe. Scaled timings read as
// they would on a host where a probe takes exactly this long.
const hostNominal = 8 * time.Millisecond

// setupProbes probes run before each set-up; setup_s is scaled by all of
// them.
const setupProbes = 5

// hostPause is how often a measured phase pauses its operations to probe
// the host, and how many probes each pause runs. Pausing more often
// follows the host's speed more closely; a workload whose operations
// overlap pauses less often, as each pause first lets them all finish,
// and runs more probes per pause instead.
type hostPause struct {
	every  time.Duration
	probes int
}

// hostSpeed runs and records host probes.
type hostSpeed struct {
	pause   hostPause
	tables  [][]uint32
	samples []float64 // seconds per probe
	sink    uint32
}

func newHostSpeed(pause hostPause) *hostSpeed {
	h := &hostSpeed{pause: pause}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		t := make([]uint32, hostWorkWords)
		for j := range t {
			t[j] = uint32(j)*2654435761 + 1
		}
		h.tables = append(h.tables, t)
	}
	return h
}

// probe runs one probe on every core the benchmark uses, records its wall
// time and returns it. The work is cut into hostWorkChunks pieces that
// the goroutines take in turn, so, as with the simulator's own parallel
// work, a core that runs slower does less of it.
func (h *hostSpeed) probe() time.Duration {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	sums := make([]uint32, len(h.tables))
	start := time.Now()
	for i, t := range h.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= hostWorkChunks {
				sums[i] += hostWork(t, hostWorkIters/hostWorkChunks, uint32(i)+1)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		h.sink ^= s
	}
	h.samples = append(h.samples, d.Seconds())
	return d
}

// hostWork is the probe's work: a pseudo-random walk over t whose next
// address depends on the value just loaded.
func hostWork(t []uint32, iters int, seed uint32) uint32 {
	mask := uint32(len(t) - 1)
	x, acc := seed*2463534242+1, uint32(0)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := t[(x^acc)&mask]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		t[x&mask] = v + acc
	}
	return acc
}

// slowdown is how many times longer than hostNominal the probes
// samples[from:to] took on average: 1 on the reference host, 2 on a host
// running at half its speed. The average leaves out the fastest and
// slowest tenth of the probes, so a stall that hits one probe does not
// scale a whole run.
func (h *hostSpeed) slowdown(from, to int) float64 {
	if from >= to {
		return 1
	}
	return trimmedMean(h.samples[from:to], 0.1) / hostNominal.Seconds()
}
