package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/did"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/sst"
	"repro/internal/timeseries"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The batch-assess corpus: cmd/funnel's labelled generator at the
// deployed history depth (funnelserve's default -history 7), a quarter
// of the no-effect changes carrying drift traps.
const (
	batchChanges = 48
	// batchPool is how many changes the generator draws; the corpus
	// keeps batchChanges of them in equal strata (see stratify).
	batchPool         = 96
	batchTrapFraction = 0.25
	batchDarkFraction = 0.75
	batchHistoryDays  = 7
	// batchMinTimed is the timed-change floor: p95 needs at least
	// minTail samples above it.
	batchMinTimed = 200
)

// batchSys is the system under test: the corpus in a chunked store and
// an assessor configured as cmd/funnel runs it.
type batchSys struct {
	sc    *workload.Scenario
	store *monitor.Store
	cfg   funnel.Config
	a     *funnel.Assessor
}

// genBatch generates the labelled corpus, the run's input. It is made
// once per run and is not part of set-up.
func genBatch(seed int64) (*workload.Scenario, error) {
	p := workload.DefaultParams()
	p.Seed = seed
	p.Changes = batchPool
	p.TrapFraction = batchTrapFraction
	p.DarkFraction = batchDarkFraction
	p.HistoryDays = batchHistoryDays
	sc, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	stratify(sc, batchChanges)
	return sc, nil
}

// stratify keeps n of the scenario's changes, the same number from
// each stratum of (treated servers, injected effect), and drops the
// KPIs of the rest. An Assess call costs about one SST sweep per KPI of
// the impact set, whose size grows with the treated servers, so without
// this the seed's draw of widths alone moved per-change latency by a
// fifth between seeds. A stratum the draw leaves short is made up from
// the remaining changes in generation order.
func stratify(sc *workload.Scenario, n int) {
	const widths = 4 // 1–3 treated servers under dark launch, all 4 otherwise
	quota := n / (2 * widths)
	stratum := func(cs workload.Case) int {
		effect := 0
		for _, t := range cs.Truth {
			if t.Changed {
				effect = 1
				break
			}
		}
		return 2*min(len(cs.Change.Servers)-1, widths-1) + effect
	}
	taken := make([]bool, len(sc.Cases))
	count := make([]int, 2*widths)
	kept := 0
	for i, cs := range sc.Cases {
		if st := stratum(cs); count[st] < quota {
			count[st]++
			taken[i] = true
			kept++
		}
	}
	for i := range sc.Cases {
		if kept < n && !taken[i] {
			taken[i] = true
			kept++
		}
	}
	var cases []workload.Case
	groups := map[string]bool{}
	for i, cs := range sc.Cases {
		if taken[i] {
			cases = append(cases, cs)
			groups[caseGroup(cs.Change.Service)] = true
		}
	}
	src := workload.NewMapSource()
	for _, k := range sc.Source.Keys() {
		if groups[caseGroup(k.Entity)] {
			s, _ := sc.Source.Series(k)
			src.Put(k, s)
		}
	}
	sc.Cases, sc.Source = cases, src
}

// caseGroup is the service group ("grp007") a generated entity name
// belongs to: every server, instance and service of one case carries
// it as its prefix.
func caseGroup(entity string) string {
	if i := strings.IndexAny(entity, ".-@"); i >= 0 {
		return entity[:i]
	}
	return entity
}

// loadBatch is the set-up: it loads the corpus into a chunked store and
// builds the assessor on it.
func loadBatch(sc *workload.Scenario) (*batchSys, error) {
	store := monitor.NewStore(sc.Start, sc.Step)
	var batch []monitor.Measurement
	for _, k := range sc.Source.Keys() {
		s, _ := sc.Source.Series(k)
		batch = batch[:0]
		for i, v := range s.Values {
			if !math.IsNaN(v) {
				batch = append(batch, monitor.Measurement{Key: k, T: s.TimeAt(i), V: v})
			}
		}
		store.AppendBatch(batch)
	}
	cfg := funnel.Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     batchHistoryDays,
	}
	a, err := funnel.NewAssessor(store, sc.Topo, cfg)
	if err != nil {
		return nil, err
	}
	return &batchSys{sc: sc, store: store, cfg: cfg, a: a}, nil
}

// fastestCalls pools, for every change, the fastest keep of its timed
// calls (ms). Interference from anything else on the host only ever
// slows a call, so each change's fastest calls are the steadier
// estimate of what assessing it costs; every change keeps the same
// number, so the pool has the corpus's mix.
func fastestCalls(lat [][]float64, keep int) []float64 {
	var pool []float64
	for _, xs := range lat {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		pool = append(pool, s[:min(keep, len(s))]...)
	}
	return pool
}

// runBatchAssess is the batch-assess workload: one caller assesses the
// corpus change after change, pass after pass.
func runBatchAssess(cfg runConfig) (*result, error) {
	res := newResult()
	t0 := time.Now()
	sc, err := genBatch(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	genS := time.Since(t0).Seconds()
	sys, setupS, err := repeatSetup(cfg.setups(3), func() (*batchSys, error) { return loadBatch(sc) }, func(*batchSys) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// From here on the store is the only copy of the KPIs; dropping the
	// generator's flat series keeps heap_live_mib about the system
	// under test.
	sc.Source = nil
	res.e2e["setup_s"] = setupS
	res.note("batch-assess: corpus generated in %.2f s, loaded in %.2f s (median)", genS, setupS)
	if cfg.Trace {
		return res, traceBatch(cfg, sys, res)
	}

	// Warm the assessor's pools and the scorer's workspaces once, as a
	// running service would be.
	if _, err := sys.a.Assess(sys.sc.Cases[0].Change); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Timed passes until --seconds is up and the fastest half of each
	// change's calls holds enough samples for p95. Every pass must
	// reproduce the first pass's reports exactly; the first pass is also
	// scored against the generator's labels.
	first := make([][]byte, len(sys.sc.Cases))
	lat := make([][]float64, len(sys.sc.Cases))
	var conf confusion
	passes := 0
	start := time.Now()
	for ; time.Since(start) < cfg.Seconds || passes*len(sys.sc.Cases) < 2*batchMinTimed; passes++ {
		for i, cs := range sys.sc.Cases {
			res.Attempted++
			t0 := time.Now()
			rep, err := sys.a.Assess(cs.Change)
			d := time.Since(t0)
			if err != nil {
				res.Failed++
				res.note("change %s: %v", cs.Change.ID, err)
				continue
			}
			lat[i] = append(lat[i], ms(d))
			b, err := canonicalReport(rep)
			if err != nil {
				return nil, err
			}
			if passes == 0 {
				first[i] = b
				scoreCase(&conf, cs, rep)
			} else if string(b) != string(first[i]) {
				res.Failed++
				res.note("change %s: pass %d report differs from pass 0", cs.Change.ID, passes)
			}
		}
	}
	res.e2e["heap_live_mib"] = heapLiveMiB()
	best := fastestCalls(lat, (passes+1)/2)
	for _, h := range []struct {
		name string
		lat  []float64
	}{{"all calls", fastestCalls(lat, passes)}, {"fastest half per change", best}} {
		p := highestPercentile(len(h.lat))
		res.note("batch-assess %s: %d timed Assess calls, p50 %.2f ms p%g %.2f ms, %.1f changes/s",
			h.name, len(h.lat), median(h.lat), p, quantile(h.lat, p/100), ratio(float64(len(h.lat)), sumOf(h.lat)/1e3))
	}
	res.e2e["p50_ms"] = median(best)
	res.e2e["p95_ms"] = quantile(best, 0.95)
	res.e2e["ops_per_s"] = ratio(float64(len(best)), sumOf(best)/1e3)
	res.e2e["precision"] = conf.precision()
	res.e2e["recall"] = conf.recall()
	res.note("batch-assess: %d changes × %d-day history in a chunked store, %d passes; per-KPI precision %.4f recall %.4f (tp %d fp %d fn %d)",
		len(sys.sc.Cases), batchHistoryDays, passes, conf.precision(), conf.recall(), conf.tp, conf.fp, conf.fn)
	return res, nil
}

// scoreCase adds one report's per-KPI attributions, judged against the
// generator's labels.
func scoreCase(conf *confusion, cs workload.Case, rep *funnel.Report) {
	pred := make(map[topo.KPIKey]bool, len(rep.Assessments))
	for _, a := range rep.Assessments {
		pred[a.Key] = a.Verdict == funnel.ChangedBySoftware
	}
	for key, truth := range cs.Truth {
		conf.add(pred[key], truth.Changed)
	}
}

// traceBatch is the traced batch-assess run. Assess runs serially
// (AssessWorkers 1), each change twice in a row: once untraced, then
// inside one span and replayed through the layers' public calls, in
// impact-set order, with a span around every call. Interleaving the two
// keeps drift in the host's speed out of the overhead and coverage
// figures.
func traceBatch(cfg runConfig, sys *batchSys, res *result) error {
	zeroLayers(res)
	serialCfg := sys.cfg
	serialCfg.AssessWorkers = 1
	a, err := funnel.NewAssessor(sys.store, sys.sc.Topo, serialCfg)
	if err != nil {
		return err
	}
	if _, err := a.Assess(sys.sc.Cases[0].Change); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	tr := newTracer()
	res.tr = tr
	rp := newReplayer(sys.store, sys.sc.Topo, serialCfg, tr)
	var untraced []float64
	// rt sums the runtime counters over the untraced calls alone.
	var rt rtSnap
	var group int64
	passes := 0
	for start := time.Now(); time.Since(start) < cfg.Seconds; passes++ {
		for _, cs := range sys.sc.Cases {
			r0 := readRuntime()
			t0 := time.Now()
			_, err := a.Assess(cs.Change)
			untraced = append(untraced, float64(time.Since(t0)))
			r1 := readRuntime()
			rt.gcs += r1.gcs - r0.gcs
			rt.pause += r1.pause - r0.pause
			rt.alloc += r1.alloc - r0.alloc
			res.Attempted++
			if err != nil {
				res.Failed++
			}

			sp := tr.begin("funnel.assess", group, -1)
			rep, err := a.Assess(cs.Change)
			tr.end(sp)
			res.Attempted++
			if err != nil {
				res.Failed++
				group++
				continue
			}
			if err := rp.replay(group, cs.Change, rep); err != nil {
				return err
			}
			group++
		}
	}
	res.runtimeLayer(rtSnap{}, rt, len(untraced))

	ls := tr.layers()
	get := func(n string) *layerStat {
		if s := ls[n]; s != nil {
			return s
		}
		return &layerStat{}
	}
	changes := float64(get("funnel").Count)
	kpis := float64(rp.kpis)
	sstL, readL, gateL, didL := get("sst"), get("read"), get("detect"), get("did")
	res.layer["sst.windows_per_kpi"] = ratio(float64(rp.windows), kpis)
	res.layer["sst.ns_per_window"] = ratio(float64(sstL.Self), float64(rp.windows))
	res.layer["sst.sweep_ms_per_kpi"] = ratio(ms(sstL.Self), kpis)
	res.layer["read.ns_per_bin"] = ratio(float64(readL.Self), float64(rp.binsDecoded))
	res.layer["read.bins_per_kpi"] = ratio(float64(rp.binsDecoded), kpis)
	res.layer["read.used_share"] = ratio(float64(rp.binsUsed), float64(rp.binsDecoded))
	res.layer["gate.us_per_kpi"] = ratio(float64(gateL.Self)/1e3, kpis)
	// Counts are per pass over the corpus, so they do not grow with the
	// host's speed.
	res.layer["gate.runs_declared"] = ratio(float64(rp.declared), float64(passes))
	res.layer["gate.runs_discarded"] = ratio(float64(rp.discarded), float64(passes))
	res.layer["did.us_per_kpi"] = ratio(float64(didL.Self)/1e3, kpis)
	res.layer["did.runs"] = ratio(float64(rp.didRuns), float64(passes))
	res.layer["did.historical_share"] = ratio(float64(rp.historical), float64(rp.didRuns))
	res.layer["impact.us_per_change"] = ratio(float64(get("topo").Self)/1e3, changes)
	res.layer["impact.kpis_per_change"] = ratio(kpis, changes)
	res.layer["render.us_per_change"] = ratio(float64(get("report").Self)/1e3, changes)
	res.layer["assess.self_ms"] = ratio(ms(get("funnel").Self), changes)
	storeLayer(res, sys.store)

	// Coverage: the replay's layer self-times, summed, against untraced
	// Assess over the same changes. Overhead: traced against untraced
	// Assess, both serial.
	var replaySelf time.Duration
	for _, n := range []string{"funnel", "topo", "read", "sst", "detect", "did"} {
		replaySelf += get(n).Self
	}
	assessed := get("funnel.assess")
	meanUntraced := ratio(sumOf(untraced), float64(len(untraced)))
	res.layer["trace.coverage"] = ratio(float64(replaySelf)/changes, meanUntraced)
	res.layer["trace.overhead_pct"] = 100 * (median(tr.durations("funnel.assess"))/median(untraced) - 1)
	res.note("batch-assess traced: %d untraced and %d traced serial Assess calls, %d replayed KPIs; untraced mean %.2f ms, traced mean %.2f ms",
		len(untraced), assessed.Count, rp.kpis, meanUntraced/1e6, ratio(float64(assessed.Total)/1e6, float64(assessed.Count)))
	return nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// replayer walks one change through the layers' public calls in the
// order Assess makes them, serially, with a span around each call. It
// mirrors the assessor's windowed read bounds and decision tree so the
// spans account for the work Assess does.
type replayer struct {
	store  *monitor.Store
	tp     *topo.Topology
	cfg    funnel.Config
	tr     *tracer
	scorer *sst.SlidingScorer
	gate   *detect.Gate
	step   time.Duration
	// The assessor's resolved window geometry: the SST spans, the
	// ±WindowBins detection window and the DiD period (funnel's
	// defaults, which the benchmark's configurations keep).
	sstPast, sstFuture, window, didWindow, binsPerDay int

	// Per-change state: the windowed-read bounds, the memoized fetches,
	// and the span every layer span of the change hangs under.
	from, to time.Time
	fetched  map[topo.KPIKey]*timeseries.Series
	group    int64
	parent   int

	// Counts over the whole replay.
	kpis, windows         int
	binsDecoded, binsUsed int
	declared, discarded   int
	didRuns, historical   int
}

func newReplayer(store *monitor.Store, tp *topo.Topology, cfg funnel.Config, tr *tracer) *replayer {
	sstCfg := sst.Config{Normalize: true, RobustFilter: true}
	scorer := sst.NewSliding(sst.NewIKA(sstCfg))
	scorer.WarmStart = true
	gate := detect.New(scorer, funnel.DefaultDetectorThreshold)
	gate.MaxGap = 5
	rp := &replayer{
		store: store, tp: tp, cfg: cfg, tr: tr, scorer: scorer, gate: gate,
		step:       store.Step(),
		sstPast:    sstCfg.PastSpan(),
		sstFuture:  sstCfg.FutureSpan(),
		window:     60,
		didWindow:  30,
		binsPerDay: int(24 * time.Hour / store.Step()),
	}
	gate.OnRun = func(declared bool) {
		if declared {
			rp.declared++
		} else {
			rp.discarded++
		}
	}
	return rp
}

// fetch reads a key's assessment window once per change, as the
// assessor's windowed fetcher does.
func (rp *replayer) fetch(k topo.KPIKey) (*timeseries.Series, bool) {
	if s, ok := rp.fetched[k]; ok {
		return s, s != nil
	}
	sp := rp.tr.begin("read", rp.group, rp.parent)
	vals, start, ok := rp.store.RangeInto(k, rp.from, rp.to, nil)
	rp.tr.end(sp)
	rp.binsDecoded += len(vals)
	var s *timeseries.Series
	if ok {
		s = timeseries.New(start, rp.step, vals)
	}
	rp.fetched[k] = s
	return s, ok
}

// average is the align-and-average of whichever keys resolve.
func (rp *replayer) average(keys []topo.KPIKey) (*timeseries.Series, bool) {
	var series []*timeseries.Series
	for _, k := range keys {
		if s, ok := rp.fetch(k); ok {
			if s.HasGaps() {
				s = s.Clone().FillGaps()
			}
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return nil, false
	}
	aligned, err := timeseries.Align(series...)
	if err != nil {
		return nil, false
	}
	avg, err := timeseries.Average(aligned)
	return avg, err == nil
}

// replay walks one change. rep is Assess's report for it, rendered
// inside the report span.
func (rp *replayer) replay(group int64, change changelog.Change, rep *funnel.Report) error {
	tr := rp.tr
	rp.group = group
	root := tr.begin("funnel", group, -1)
	rp.parent = root
	defer tr.end(root)

	sp := tr.begin("topo", group, root)
	set, err := rp.tp.IdentifyImpactSet(change.Service, change.Servers)
	var keys []topo.KPIKey
	if err == nil {
		keys = set.TreatedKPIs(rp.cfg.ServerMetrics, rp.cfg.InstanceMetrics)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	// The assessor's windowed fetch bounds: the seasonal-DiD lookback
	// and the detection window, each padded by its 16-bin slack.
	const slack = 16
	needBack := rp.cfg.HistoryDays*rp.binsPerDay + 2*rp.didWindow + rp.window + rp.sstPast + slack
	needFwd := max(rp.window+rp.sstFuture, rp.didWindow) + slack
	rp.from = change.At.Add(-time.Duration(needBack) * rp.step)
	rp.to = change.At.Add(time.Duration(needFwd) * rp.step)
	rp.fetched = map[topo.KPIKey]*timeseries.Series{}

	for _, key := range keys {
		rp.kpis++
		series, ok := rp.fetch(key)
		if key.Scope == topo.ScopeService && key.Entity == set.ChangedService && set.Dark() {
			var tkeys []topo.KPIKey
			for _, in := range set.TInstances {
				tkeys = append(tkeys, topo.KPIKey{Scope: topo.ScopeInstance, Entity: in, Metric: key.Metric})
			}
			if avg, aok := rp.average(tkeys); aok {
				series, ok = avg, true
			}
		}
		if !ok {
			continue
		}
		changeBin := int(change.At.Sub(series.Start) / series.Step)
		if series.HasGaps() {
			series = series.Clone().FillGaps()
		}
		lo := max(changeBin-rp.window-rp.sstPast, 0)
		hi := min(changeBin+rp.window+rp.sstFuture, series.Len())
		if lo >= hi {
			continue
		}
		segment := series.Values[lo:hi]
		rp.binsUsed += hi - lo
		scores := make([]float64, len(segment))
		for i := range scores {
			scores[i] = math.NaN()
		}
		sp := tr.begin("sst", group, root)
		rp.scorer.ScoreRangeInto(scores, segment, rp.sstPast, len(segment)-rp.sstFuture+1)
		tr.end(sp)
		rp.windows += max(len(segment)-rp.sstPast-rp.sstFuture+1, 0)

		sp = tr.begin("detect", group, root)
		dets := rp.gate.DetectScored(segment, scores)
		tr.end(sp)
		found := false
		for _, d := range dets {
			if d.End+lo >= changeBin-2 {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		rp.determine(set, key, series, changeBin, change.At)
	}

	sp = tr.begin("report", group, root)
	_, err = json.Marshal(report.ToJSON(rep))
	tr.end(sp)
	return err
}

// determine replays the cause-determination branch for one detected
// KPI: a concurrent control under Dark Launching, the weekday-matched
// historical control otherwise.
func (rp *replayer) determine(set *topo.ImpactSet, key topo.KPIKey, series *timeseries.Series, changeBin int, at time.Time) {
	w := rp.didWindow
	if changeBin-w < 0 || changeBin+w > series.Len() {
		return
	}
	sp := rp.tr.begin("did", rp.group, rp.parent)
	defer rp.tr.end(sp)
	saved := rp.parent
	rp.parent = sp
	defer func() { rp.parent = saved }()
	rp.didRuns++
	controls := set.ControlKPIs(key)
	if key.Scope == topo.ScopeService && key.Entity == set.ChangedService && set.Dark() {
		for _, in := range set.CInstances {
			controls = append(controls, topo.KPIKey{Scope: topo.ScopeInstance, Entity: in, Metric: key.Metric})
		}
	}
	tPre, tPost := series.Around(changeBin, w)
	if set.Dark() && len(controls) > 0 {
		control, ok := rp.average(controls)
		if !ok {
			return
		}
		cb, in := control.IndexOf(at)
		if !in || cb-w < 0 || cb+w > control.Len() {
			return
		}
		rp.binsUsed += 2 * w * len(controls)
		cPre, cPost := control.Around(cb, w)
		did.Estimate(did.NormalizeGroups(tPre, tPost, cPre, cPost))
		return
	}
	rp.historical++
	cPre, cPost, ok := did.HistoricalControlWeekly(series, changeBin, w, rp.cfg.HistoryDays/7)
	if !ok {
		cPre, cPost, ok = did.HistoricalControl(series, changeBin, w, rp.cfg.HistoryDays)
	}
	if !ok {
		return
	}
	rp.binsUsed += len(cPre) + len(cPost)
	did.Estimate(did.NormalizeGroups(tPre, tPost, cPre, cPost))
}
