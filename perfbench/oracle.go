package main

import (
	"bytes"
	"encoding/json"
	"math"
	"time"

	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/topo"
)

// canonicalReport is a report's JSON wire form with the trace left out:
// the trace holds timings, which differ between any two runs, while
// everything else must match the reference exactly.
func canonicalReport(r *funnel.Report) ([]byte, error) {
	j := report.ToJSON(r)
	j.Trace = nil
	return json.Marshal(j)
}

// sameReport reports whether two reports of one change agree on
// everything but their traces.
func sameReport(got, want *funnel.Report) (bool, error) {
	a, err := canonicalReport(got)
	if err != nil {
		return false, err
	}
	b, err := canonicalReport(want)
	if err != nil {
		return false, err
	}
	return bytes.Equal(a, b), nil
}

// verdictDiffs counts the KPIs whose verdicts differ between two
// reports of one change; a KPI present in only one of them counts too.
func verdictDiffs(a, b *funnel.Report) int {
	want := make(map[topo.KPIKey]funnel.Verdict, len(b.Assessments))
	for _, x := range b.Assessments {
		want[x.Key] = x.Verdict
	}
	diffs := 0
	for _, x := range a.Assessments {
		v, ok := want[x.Key]
		if !ok || v != x.Verdict {
			diffs++
		}
		delete(want, x.Key)
	}
	return diffs + len(want)
}

// confusion counts per-KPI attribution outcomes against ground truth:
// a positive is a ChangedBySoftware verdict, the paper's Table 1
// criterion.
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(predicted, truth bool) {
	switch {
	case predicted && truth:
		c.tp++
	case predicted:
		c.fp++
	case truth:
		c.fn++
	}
}

func (c confusion) precision() float64 { return ratio(float64(c.tp), float64(c.tp+c.fp)) }
func (c confusion) recall() float64    { return ratio(float64(c.tp), float64(c.tp+c.fn)) }

// readback reads bins [0, bins) of every key back from the store and
// compares them value by value with want(i, bin), where i indexes keys.
// It returns how many values it checked and how many were missing or
// wrong.
func readback(store *monitor.Store, keys []topo.KPIKey, bins int, want func(i, bin int) float64, tr *tracer) (checked, bad int) {
	from := store.Start()
	to := from.Add(time.Duration(bins) * store.Step())
	var buf []float64
	for i, k := range keys {
		sp := tr.begin("read", int64(i), -1)
		vals, start, ok := store.RangeInto(k, from, to, buf[:0])
		tr.end(sp)
		buf = vals
		checked += bins
		if !ok || !start.Equal(from) {
			bad += bins
			continue
		}
		for b := 0; b < bins; b++ {
			if b >= len(vals) || math.IsNaN(vals[b]) || vals[b] != want(i, b) {
				bad++
			}
		}
	}
	return checked, bad
}
