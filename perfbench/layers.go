package main

import (
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
)

// zeroLayers sets every per-layer metric to 0, so a layer the workload
// does not exercise reports 0 rather than going missing.
func zeroLayers(r *result) {
	for _, s := range perLayer {
		r.layer[s.Name] = 0
	}
}

// counterNames are the collector counters the traced runs read.
var counterNames = []string{
	obs.CtrStreamAdvances, obs.CtrStreamCacheHits, obs.CtrStreamCacheMisses,
	obs.CtrStreamSheds, obs.CtrCompactions,
	obs.CtrChangesAssessed, obs.CtrKPIsAssessed, obs.CtrRunsDeclared, obs.CtrRunsDiscarded,
}

// stageNames are the collector stage histograms the traced runs read.
var stageNames = []string{
	obs.StageImpactSet, obs.StageSSTWindow, obs.StageSSTScore, obs.StagePersist,
	obs.StageDiDControl, obs.StageDiDEstimate, obs.StageRender, obs.StageAssess,
	obs.StageBinToVerdict,
}

// stages snapshots the stage histograms the traced runs read.
func stages(col *obs.Collector) map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot, len(stageNames))
	for _, n := range stageNames {
		out[n] = col.Stage(n).Snapshot()
	}
	return out
}

// collectorLayers records the assessment layers' figures from the
// daemon's own collector, over the interval between two snapshots: the
// streamed SST windows, and per assessed KPI or change the time the
// assessor spent in each stage.
func collectorLayers(r *result, ctr0, ctr map[string]int64, st0, st map[string]obs.HistogramSnapshot) {
	d := func(n string) obs.HistogramSnapshot { return sub(st[n], st0[n]) }
	c := func(n string) float64 { return float64(ctr[n] - ctr0[n]) }
	changes, kpis := c(obs.CtrChangesAssessed), c(obs.CtrKPIsAssessed)
	win, score, persist := d(obs.StageSSTWindow), d(obs.StageSSTScore), d(obs.StagePersist)
	control, estimate, impact := d(obs.StageDiDControl), d(obs.StageDiDEstimate), d(obs.StageImpactSet)
	r.layer["obs.sst_window_p50_us"] = float64(snapQuantile(win, 0.5)) / 1e3
	r.layer["obs.b2v_p99_ms"] = ms(snapQuantile(d(obs.StageBinToVerdict), 0.99))
	r.layer["sst.windows_per_kpi"] = ratio(float64(win.Count), kpis)
	r.layer["sst.ns_per_window"] = ratio(float64(win.SumNanos), float64(win.Count))
	r.layer["sst.sweep_ms_per_kpi"] = ratio(float64(score.SumNanos)/1e6, kpis)
	r.layer["gate.us_per_kpi"] = ratio(float64(persist.SumNanos)/1e3, kpis)
	r.layer["gate.runs_declared"] = c(obs.CtrRunsDeclared)
	r.layer["gate.runs_discarded"] = c(obs.CtrRunsDiscarded)
	r.layer["did.us_per_kpi"] = ratio(float64(control.SumNanos+estimate.SumNanos)/1e3, kpis)
	r.layer["did.runs"] = float64(estimate.Count)
	r.layer["impact.us_per_change"] = ratio(float64(impact.SumNanos)/1e3, changes)
	r.layer["impact.kpis_per_change"] = ratio(kpis, changes)
	r.layer["render.us_per_change"] = ratio(float64(d(obs.StageRender).SumNanos)/1e3, changes)
	// The daemon assesses a change's KPIs one after another on one P,
	// so the stages nest inside the assess span without overlapping.
	inner := impact.SumNanos + score.SumNanos + persist.SumNanos + control.SumNanos + estimate.SumNanos
	r.layer["assess.self_ms"] = ratio(float64(d(obs.StageAssess).SumNanos-inner)/1e6, changes)
}

// counters snapshots the counters the traced runs read.
func counters(col *obs.Collector) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = col.Counter(n)
	}
	return out
}

// sub is the histogram of the observations made between two snapshots.
func sub(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := after
	out.Count -= before.Count
	out.SumNanos -= before.SumNanos
	for i := range out.Buckets {
		out.Buckets[i] -= before.Buckets[i]
	}
	return out
}

// snapQuantile estimates the q-quantile of a collector histogram,
// interpolating linearly inside the power-of-two bucket where the
// cumulative count crosses q (the collector's own Quantile returns the
// bucket's upper bound, too coarse to compare two runs).
func snapQuantile(s obs.HistogramSnapshot, q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			lo, hi := 0.0, 1.0 // µs
			if i > 0 {
				lo, hi = float64(int64(1)<<uint(i-1)), float64(int64(1)<<uint(i))
			}
			frac := (target - cum) / float64(n)
			return time.Duration((lo + frac*(hi-lo)) * float64(time.Microsecond))
		}
		cum += float64(n)
	}
	return time.Duration(s.MaxNanos)
}

// storeLayer records the store's resident shape: sealed chunks and the
// raw-to-encoded size ratio of their values.
func storeLayer(r *result, store *monitor.Store) {
	st := store.Stats()
	raw := float64(st.Chunks) * float64(store.ChunkSpan()) * 8
	r.layer["store.compression_ratio"] = ratio(raw, float64(st.CompressedBytes))
	r.layer["store.chunks_sealed"] = float64(st.Chunks)
}
