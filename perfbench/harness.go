package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// repeatSetup builds the system under test n times, timing each build,
// tears down all but the last, and returns the last with the median
// build time in seconds. Repeating keeps setup_s steady enough to gate
// on, so work moved into set-up shows.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var sys T
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			// Drop the build before the next one starts, so two
			// systems never share the heap.
			teardown(s)
			continue
		}
		sys = s
	}
	return sys, median(times), nil
}

// rtSnap is a runtime counter snapshot for GC and allocation deltas.
type rtSnap struct {
	gcs   uint32
	pause uint64
	alloc uint64
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{gcs: m.NumGC, pause: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// runtimeLayer records the runtime layer's figures for the interval
// between two snapshots in which ops operations completed.
func (r *result) runtimeLayer(before, after rtSnap, ops int) {
	r.layer["gc.pause_ms_total"] = float64(after.pause-before.pause) / 1e6
	r.layer["gc.cycles"] = float64(after.gcs - before.gcs)
	r.layer["alloc_kb_per_op"] = ratio(float64(after.alloc-before.alloc)/1024, float64(ops))
}

// heapLiveMiB forces a collection and returns the heap still in use.
func heapLiveMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// mix is the splitmix64 finalizer: a stateless hash, so any value the
// generators produce can be recomputed by the oracles from its
// coordinates alone.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, a, b) to a uniform value in (0, 1).
func unit(seed int64, a, b uint64) float64 {
	h := mix(uint64(seed) ^ mix(a^mix(b)))
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// gauss maps (seed, a, b) to a standard normal value (Box–Muller).
func gauss(seed int64, a, b uint64) float64 {
	u1 := unit(seed, a, b)
	u2 := unit(seed, a^0x5bd1e995, b+0x2545f491)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// keyHash identifies a string coordinate for the generators.
func keyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
