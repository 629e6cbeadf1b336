// The -run-stream-bench mode: the streaming-assessment suite whose
// results are committed as BENCH_5.json at the repo root. It drives
// the identical multi-change workload at the same paced ingest rate
// through the assess-on-ingest Streamer (per-KPI score state advanced
// as each bin lands) and through a re-sweep-at-readiness reference (a
// plain batch Assess of the full window the moment the observation
// window completes — the "pull" entries), and reads the exact per-KPI
// bin-to-verdict latencies off each report's trace. A second block measures what an attached
// Streamer costs the ingest hot path: in-process AppendBatch
// throughput with the bin feed registered and a change tracked versus
// a bare store, in adjacent rounds so host drift cancels. The
// -bench-check mode replays the suite against the committed baseline
// and enforces the two headline gates fresh in the same run: streaming
// p99 bin-to-verdict at least streamLatencyFloor× better than the
// re-sweep reference, and attached ingest within streamAppendOverheadCap× of
// detached.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/changelog"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// streamLatencyFloor is the required p99 bin-to-verdict advantage of
// the streaming engine over re-sweep at readiness at equal ingest
// rate. The architectural claim behind it: the re-sweep pays the whole
// ±WindowBins score sweep for every KPI after the last bin arrives,
// while the streamer has already scored every window the scorer's
// lookahead allowed, leaving only the final lookahead-blocked windows
// plus the cheap statistical stages between last-bin arrival and
// verdict. Both sides are measured in the same process moments apart,
// so the ratio survives noisy CI hosts.
const streamLatencyFloor = 5.0

// streamAppendOverheadCap bounds what an attached Streamer — bin feed
// registered, a change tracked, scoring workers live — may add to
// in-process AppendBatch throughput. The feed's ingest-side cost is
// one atomic snapshot load plus a map miss for untracked keys, so
// always-on streaming is only an honest default if it stays within
// noise of free.
const streamAppendOverheadCap = 1.05

// Workload shape for the latency comparison: three services changing
// streamStaggerBins apart, each with streamServersPerSvc servers of
// which streamTreatedPerSvc receive the deployed shift, giving
// 27 per-KPI bin-to-verdict samples per round. The window is the
// production default (±60 bins) — the re-sweep cost under test is
// exactly the sweep of that window.
const (
	streamHistoryDays   = 1
	streamServices      = 3
	streamServersPerSvc = 9
	streamTreatedPerSvc = 3
	streamWindowBins    = 60
	streamStaggerBins   = 30
)

// streamPace is the per-bin ingest cadence through the live region of
// the replay (production cadence is one minute; the compressed replay
// only needs to be slow enough that "equal ingest rate" is true for
// both engines rather than a race the streamer's workers can lose).
const streamPace = 2 * time.Millisecond

// streamAppendMeas is the measurement count per append-throughput
// round; large enough that the per-append feed cost dominates the
// harness, small enough that three paired rounds stay sub-second.
const streamAppendMeas = 1 << 19

// measureStreamB2V replays the deterministic multi-change workload
// through the Streamer (streaming) or the re-sweep-at-readiness
// reference and returns every per-KPI bin-to-verdict sample
// (nanoseconds) from the emitted report traces. History up to the
// first assessment window is bulk-loaded — arrival watermarks only
// matter once the windows open — then the live region is paced bin by
// bin identically for both sides. The reference checks readiness
// inline after every paced batch and assesses each ready change with a
// batch sweep of its full window.
func measureStreamB2V(streaming bool) ([]float64, error) {
	start := time.Unix(0, 0).UTC()
	store := monitor.NewStoreShards(start, time.Minute, monitor.StoreShards)
	col := obs.NewCollector()
	store.SetCollector(col)
	tp := topo.NewTopology()

	type seriesSpec struct {
		key   topo.KPIKey
		shift float64
		from  int // the owning service's change bin
	}
	baseChange := streamHistoryDays*1440 + 240
	var specs []seriesSpec
	var changes []changelog.Change
	for s := 0; s < streamServices; s++ {
		svc := fmt.Sprintf("stream.svc%d", s)
		cb := baseChange + s*streamStaggerBins
		var treated []string
		for i := 0; i < streamServersPerSvc; i++ {
			srv := fmt.Sprintf("st%d-%d", s, i)
			tp.Deploy(svc, srv)
			shift := 0.0
			if i < streamTreatedPerSvc {
				shift = 9
				treated = append(treated, srv)
			}
			specs = append(specs, seriesSpec{
				key:   topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
				shift: shift,
				from:  cb,
			})
		}
		changes = append(changes, changelog.Change{
			ID: svc + "-chg", Type: changelog.Upgrade, Service: svc,
			Servers: treated, At: start.Add(time.Duration(cb) * time.Minute),
		})
	}
	// One sub-generator per series, seeded from a fixed root, so both
	// engines (and every round) see bit-identical measurements.
	root := rand.New(rand.NewSource(41))
	rngs := make([]*rand.Rand, len(specs))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(root.Int63()))
	}
	appendBin := func(bin int, batch []monitor.Measurement) []monitor.Measurement {
		ts := start.Add(time.Duration(bin) * time.Minute)
		for i := range specs {
			v := 55 + 0.6*rngs[i].NormFloat64()
			if bin >= specs[i].from {
				v += specs[i].shift
			}
			batch = append(batch, monitor.Measurement{Key: specs[i].key, T: ts, V: v})
		}
		return batch
	}

	cfg := funnel.Config{
		ServerMetrics: []string{"mem.util"},
		HistoryDays:   streamHistoryDays,
		WindowBins:    streamWindowBins,
		Obs:           col,
	}
	var sr *funnel.Streamer
	var ref *funnel.Assessor
	var err error
	if streaming {
		sr, err = funnel.NewStreamer(store, tp, cfg, funnel.StreamConfig{
			Workers: 4, PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		defer sr.Close()
	} else if ref, err = funnel.NewAssessor(store, tp, cfg); err != nil {
		return nil, err
	}
	out := make(chan *funnel.Report, len(changes))
	reports := (<-chan *funnel.Report)(out)
	waiting := append([]changelog.Change(nil), changes...)
	pending := func() int { return len(waiting) }
	if sr != nil {
		reports, pending = sr.Reports(), sr.Pending
	}

	lastChange := baseChange + (streamServices-1)*streamStaggerBins
	total := lastChange + streamWindowBins + 80
	liveFrom := baseChange - streamWindowBins - 80

	bulk := make([]monitor.Measurement, 0, len(specs)*liveFrom)
	for bin := 0; bin < liveFrom; bin++ {
		bulk = appendBin(bin, bulk)
	}
	store.AppendBatch(bulk)

	if sr != nil {
		for _, c := range changes {
			if err := sr.RegisterChange(c); err != nil {
				return nil, err
			}
		}
	}

	batch := make([]monitor.Measurement, 0, len(specs))
	for bin := liveFrom; bin < total; bin++ {
		batch = appendBin(bin, batch[:0])
		store.AppendBatch(batch)
		if ref != nil {
			if waiting, err = resweepReady(store, ref, waiting, out); err != nil {
				return nil, err
			}
		}
		time.Sleep(streamPace)
	}

	var samples []float64
	deadline := time.After(60 * time.Second)
	for got := 0; got < streamServices; got++ {
		select {
		case rep := <-reports:
			if rep.Trace == nil {
				return nil, fmt.Errorf("change %s: report carries no trace", rep.Change.ID)
			}
			if len(rep.Flagged()) == 0 {
				return nil, fmt.Errorf("change %s: nothing flagged — the workload no longer exercises a real verdict", rep.Change.ID)
			}
			for _, k := range rep.Trace.KPIs {
				if k.BinToVerdictNanos > 0 {
					samples = append(samples, float64(k.BinToVerdictNanos))
				}
			}
		case <-deadline:
			return nil, fmt.Errorf("streaming=%v: %d of %d reports before timeout (pending %d)",
				streaming, got, streamServices, pending())
		}
	}
	if n := pending(); n != 0 {
		return nil, fmt.Errorf("streaming=%v: %d changes still pending after all reports", streaming, n)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("streaming=%v: no bin-to-verdict samples recorded", streaming)
	}
	return samples, nil
}

// resweepReady is the re-sweep-at-readiness reference: every waiting
// change whose probe (its first treated server) holds a bin past
// changeBin + WindowBins + FutureSpan is assessed with a batch sweep of
// its full window, and its report sent on out. It returns the changes
// still waiting.
func resweepReady(store *monitor.Store, a *funnel.Assessor, waiting []changelog.Change, out chan<- *funnel.Report) ([]changelog.Change, error) {
	cfg := a.Config()
	still := waiting[:0]
	for _, c := range waiting {
		probe := topo.KPIKey{Scope: topo.ScopeServer, Entity: c.Servers[0], Metric: cfg.ServerMetrics[0]}
		ready := int(c.At.Sub(store.Start())/store.Step()) + cfg.WindowBins + cfg.SST.FutureSpan()
		if n, _ := store.SeriesLen(probe); n <= ready {
			still = append(still, c)
			continue
		}
		rep, err := a.Assess(c)
		if err != nil {
			return nil, err
		}
		out <- rep
	}
	return still, nil
}

// quantileNs returns the q-quantile of the samples (exact, from the
// sorted raw values — the obs histogram's power-of-two buckets are too
// coarse to divide into a ratio gate).
func quantileNs(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// meanNs returns the mean of the samples.
func meanNs(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// measureStreamAppend times in-process AppendBatch throughput, with or
// without a live Streamer attached. The key rotation is mostly fleet
// keys the streamer never tracks plus the four tracked ones, so the
// measured cost covers both the filter miss (the overwhelmingly common
// case) and the dirty-mark path. The tracked change sits near the end
// of the fed timeline so its feed filter, dirty marks, drain wakeups,
// and incremental advances stay live for the entire timed region —
// replaying days of bins in tens of milliseconds would otherwise turn
// the scorer's bounded per-bin work into a burst rescore no production
// cadence exhibits, and readiness mid-run would retire the change and
// null the filter. Batches are pre-built so only the store — and,
// attached, the feed seam — is inside the clock.
func measureStreamAppend(attached bool) (benchStats, error) {
	start := time.Unix(0, 0).UTC()
	store := monitor.NewStoreShards(start, time.Minute, monitor.StoreShards)
	store.SetCollector(obs.NewCollector())
	tp := topo.NewTopology()
	var treated []string
	for i := 0; i < 4; i++ {
		srv := fmt.Sprintf("st-app-%d", i)
		tp.Deploy("stream.app", srv)
		if i < 2 {
			treated = append(treated, srv)
		}
	}
	const distinct = 128
	fedBins := streamAppendMeas / distinct
	if attached {
		sr, err := funnel.NewStreamer(store, tp, funnel.Config{
			ServerMetrics: []string{"mem.util"},
			HistoryDays:   1,
			WindowBins:    streamWindowBins,
			Obs:           obs.NewCollector(),
		}, funnel.StreamConfig{})
		if err != nil {
			return benchStats{}, err
		}
		defer sr.Close()
		if err := sr.RegisterChange(changelog.Change{
			ID: "app-chg", Type: changelog.Config, Service: "stream.app",
			Servers: treated, At: start.Add(time.Duration(fedBins-16) * time.Minute),
		}); err != nil {
			return benchStats{}, err
		}
	}

	keys := make([]topo.KPIKey, distinct)
	for i := range keys {
		keys[i] = topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("fleet-%d", i), Metric: "bench.qps"}
	}
	for i := 0; i < 4; i++ {
		keys[i*32] = topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("st-app-%d", i), Metric: "mem.util"}
	}
	const batchLen = 1024
	batches := make([][]monitor.Measurement, 0, streamAppendMeas/batchLen)
	for off := 0; off < streamAppendMeas; off += batchLen {
		b := make([]monitor.Measurement, batchLen)
		for j := range b {
			i := off + j
			b[j] = monitor.Measurement{
				Key: keys[i%distinct],
				T:   start.Add(time.Duration(i/distinct) * time.Minute),
				V:   float64(i % 97),
			}
		}
		batches = append(batches, b)
	}

	// Flush the prebuild garbage (tens of MB of measurement slices) so
	// a collection does not land inside one side of the paired round.
	runtime.GC()
	t0 := time.Now()
	for _, b := range batches {
		store.AppendBatch(b)
	}
	elapsed := time.Since(t0)
	return benchStats{NsPerOp: float64(elapsed.Nanoseconds()) / float64(streamAppendMeas)}, nil
}

// runStreamBenchSuite executes the streaming suite. With checkPath
// empty the results are written to outPath as a funnel-stream-bench/v1
// document; otherwise they are gated against the committed baseline
// (latency headroom per entry) plus the two fresh same-run ratios.
func runStreamBenchSuite(outPath, checkPath string) error {
	fmt.Printf("streaming-assessment suite: %d services × %d servers, %d-bin window, %v/bin live pace\n",
		streamServices, streamServersPerSvc, streamWindowBins, streamPace)
	cal := calibrateNs()
	fmt.Printf("host calibration kernel: %.0f ns/op\n", cal)

	// Three paired rounds, pull then stream back to back so drift hits
	// both sides alike. Interference only ever inflates a latency, so
	// the committed entries keep each mode's cleanest (minimum) round
	// while the gate keeps the cleanest ratio: the round whose
	// streaming figure — the side scheduling noise distorts most,
	// since the re-sweep's is dominated by deterministic sweep compute —
	// came through undisturbed.
	pullP99 := math.Inf(1)
	streamP99 := math.Inf(1)
	var pullMean, streamMean float64
	var nPull, nStream int
	bestRatio := 0.0
	for round := 0; round < 3; round++ {
		runtime.GC()
		pull, err := measureStreamB2V(false)
		if err != nil {
			return err
		}
		runtime.GC()
		strm, err := measureStreamB2V(true)
		if err != nil {
			return err
		}
		pp, sp := quantileNs(pull, 0.99), quantileNs(strm, 0.99)
		if r := pp / sp; r > bestRatio {
			bestRatio = r
		}
		if pp < pullP99 {
			pullP99, pullMean, nPull = pp, meanNs(pull), len(pull)
		}
		if sp < streamP99 {
			streamP99, streamMean, nStream = sp, meanNs(strm), len(strm)
		}
		fmt.Printf("  round %d: pull p99 %8.2f ms   stream p99 %8.2f ms   ratio %5.1f×\n",
			round+1, pp/1e6, sp/1e6, pp/sp)
	}

	// Append throughput, paired rounds, minimum ratio (the overhead
	// cap divides figures whose scheduler noise can exceed the cost
	// under test — same reasoning as the ingest suite's pairedRatio).
	detached := benchStats{NsPerOp: math.Inf(1)}
	attached := benchStats{NsPerOp: math.Inf(1)}
	overhead := math.Inf(1)
	for round := 0; round < 3; round++ {
		d, err := measureStreamAppend(false)
		if err != nil {
			return err
		}
		a, err := measureStreamAppend(true)
		if err != nil {
			return err
		}
		if r := a.NsPerOp / d.NsPerOp; r < overhead {
			overhead = r
		}
		if d.NsPerOp < detached.NsPerOp {
			detached = d
		}
		if a.NsPerOp < attached.NsPerOp {
			attached = a
		}
	}

	entries := []benchEntry{
		{Name: "stream/b2v-pull-p99", Iters: nPull, After: benchStats{NsPerOp: pullP99}},
		{Name: "stream/b2v-pull-mean", Iters: nPull, After: benchStats{NsPerOp: pullMean}},
		{Name: "stream/b2v-stream-p99", Iters: nStream, After: benchStats{NsPerOp: streamP99}},
		{Name: "stream/b2v-stream-mean", Iters: nStream, After: benchStats{NsPerOp: streamMean}},
		{Name: "stream/append-detached", Iters: streamAppendMeas, After: detached},
		{Name: "stream/append-attached", Iters: streamAppendMeas, After: attached},
	}
	for _, e := range entries {
		fmt.Printf("  %-26s %14.0f ns/op\n", e.Name, e.After.NsPerOp)
	}
	fmt.Printf("  streaming p99 bin-to-verdict advantage: %.1f× (floor %.1f×)\n",
		bestRatio, streamLatencyFloor)
	fmt.Printf("  attached-streamer append overhead: %.3f× (cap %.2f×)\n",
		overhead, streamAppendOverheadCap)

	if checkPath != "" {
		if bestRatio < streamLatencyFloor {
			return fmt.Errorf("streaming p99 bin-to-verdict advantage %.2f× below required %.1f×",
				bestRatio, streamLatencyFloor)
		}
		if overhead > streamAppendOverheadCap {
			return fmt.Errorf("attached-streamer append overhead %.3f× above cap %.2f×",
				overhead, streamAppendOverheadCap)
		}
		return checkAgainstBaseline(checkPath, cal, entries)
	}
	return writeBenchFile(outPath, "funnel-stream-bench/v1", cal, entries)
}
