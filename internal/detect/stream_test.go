package detect

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sst"
	"repro/internal/topo"
)

func streamDetector() *Gate {
	d := New(sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true}), 1.5)
	d.MaxGap = 5
	return d
}

func TestStreamMatchesBatchDeclaration(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	c := 200
	x := genLevelShift(400, c, 8, 0.5, rng)

	det := streamDetector()
	batch := det.Detect(x)
	if len(batch) == 0 {
		t.Fatal("batch found nothing")
	}

	stream := NewStream(det)
	var decls []Declaration
	for _, v := range x {
		if d, ok := stream.Push(v); ok {
			decls = append(decls, d)
		}
	}
	if len(decls) == 0 {
		t.Fatal("stream found nothing")
	}
	if decls[0].Start != batch[0].Start {
		t.Fatalf("stream start %d != batch start %d", decls[0].Start, batch[0].Start)
	}
	// The stream's wall-clock At must equal the batch's AvailableAt:
	// both account for the scorer's future window.
	if decls[0].At != batch[0].AvailableAt {
		t.Fatalf("stream At %d != batch AvailableAt %d", decls[0].At, batch[0].AvailableAt)
	}
}

// TestStreamRunsReachOnRun pins the shared persistence rule: every run
// the stream closes reaches OnRun with the same decision the batch
// gate makes for it. The batch scan additionally flushes a run still
// open at the end of the series, so the stream's decisions must be a
// prefix of the batch's.
func TestStreamRunsReachOnRun(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	x := genLevelShift(400, 150, 8, 0.5, rng)
	var batch, stream []bool
	det := streamDetector()
	det.OnRun = func(declared bool) { batch = append(batch, declared) }
	det.Detect(x)
	det.OnRun = func(declared bool) { stream = append(stream, declared) }
	s := NewStream(det)
	for _, v := range x {
		s.Push(v)
	}
	if len(stream) == 0 {
		t.Fatal("stream closed no run")
	}
	if len(stream) > len(batch) {
		t.Fatalf("stream closed %d runs, batch %d", len(stream), len(batch))
	}
	for i := range stream {
		if stream[i] != batch[i] {
			t.Fatalf("run %d: stream declared=%v, batch declared=%v", i, stream[i], batch[i])
		}
	}
}

func TestStreamQuietSeriesSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	x := genLevelShift(500, 1<<30, 0, 0.5, rng)
	stream := NewStream(streamDetector())
	for i, v := range x {
		if d, ok := stream.Push(v); ok {
			t.Fatalf("false declaration at push %d: %+v", i, d)
		}
	}
	if stream.Len() != len(x) {
		t.Fatalf("Len = %d", stream.Len())
	}
}

func TestStreamDeclaresOncePerRun(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	x := genLevelShift(400, 200, 10, 0.3, rng)
	stream := NewStream(streamDetector())
	count := 0
	for _, v := range x {
		if _, ok := stream.Push(v); ok {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("declared %d times, want 1", count)
	}
}

func TestStreamShortWindowNoScore(t *testing.T) {
	stream := NewStream(streamDetector())
	w := streamDetector().Scorer.Config().WindowSize()
	for i := 0; i < w-1; i++ {
		if _, ok := stream.Push(1); ok {
			t.Fatal("declared before a full window existed")
		}
	}
}

// Steady-state pushes must not allocate: the window is a fixed-capacity
// buffer shifted in place, and the IKA scorer behind it is
// allocation-free. The old append-then-reslice window reallocated (and
// fully copied) on every push once the window was full.
func TestStreamPushZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	rng := rand.New(rand.NewSource(105))
	stream := NewStream(streamDetector())
	w := stream.cfg.WindowSize()
	// Warm past the full window on a quiet series so scoring engages
	// and the pooled scorer workspace is built.
	for i := 0; i < 4*w; i++ {
		stream.Push(20 + 0.3*rng.NormFloat64())
	}
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = 20 + 0.3*rng.NormFloat64()
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		stream.Push(samples[i%len(samples)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocs/op = %v, want 0", allocs)
	}
}

func TestStreamInRun(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	x := genLevelShift(400, 200, 10, 0.3, rng)
	stream := NewStream(streamDetector())
	sawRun := false
	for _, v := range x {
		stream.Push(v)
		if stream.InRun() {
			sawRun = true
		}
	}
	if !sawRun {
		t.Fatal("run state never opened")
	}
}

func TestFleetPerKeyIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	fleet := NewFleet(nil)
	shiftKey := kpiKey("srv-1")
	quietKey := kpiKey("srv-2")
	var declared []FleetDeclaration
	for i := 0; i < 400; i++ {
		shift := 0.0
		if i >= 200 {
			shift = 10
		}
		if d, ok := fleet.Push(shiftKey, 20+0.3*rng.NormFloat64()+shift); ok {
			declared = append(declared, d)
		}
		if d, ok := fleet.Push(quietKey, 20+0.3*rng.NormFloat64()); ok {
			declared = append(declared, d)
		}
	}
	if len(declared) != 1 || declared[0].Key != shiftKey {
		t.Fatalf("declarations = %+v", declared)
	}
	if fleet.Len() != 2 || len(fleet.Keys()) != 2 {
		t.Fatalf("fleet size = %d", fleet.Len())
	}
	fleet.Drop(quietKey)
	if fleet.Len() != 1 {
		t.Fatal("Drop did not remove the stream")
	}
}

func TestFleetConcurrentPushes(t *testing.T) {
	fleet := NewFleet(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			key := kpiKey(string(rune('a' + g)))
			for i := 0; i < 300; i++ {
				fleet.Push(key, rng.NormFloat64())
			}
		}(g)
	}
	wg.Wait()
	if fleet.Len() != 8 {
		t.Fatalf("fleet size = %d", fleet.Len())
	}
}

func kpiKey(entity string) topo.KPIKey {
	return topo.KPIKey{Scope: topo.ScopeServer, Entity: entity, Metric: "m"}
}
