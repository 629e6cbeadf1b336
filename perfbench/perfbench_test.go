package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestHighestPercentileKeepsTenSamplesAbove(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			if above := samplesAbove(c.n, c.want); above < minTail {
				t.Errorf("n=%d: p%g has %d samples above it, want ≥ %d", c.n, c.want, above, minTail)
			}
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: quantile must sort
	}
	if got := quantile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (10 samples above)", got)
	}
	if got := quantile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestScheduleDueTimeAndLateness(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	s := schedule{t0: t0, first: 100, period: 50 * time.Millisecond}
	if got := s.due(100); !got.Equal(t0) {
		t.Errorf("due(first) = %v, want t0", got)
	}
	if got := s.due(177); !got.Equal(t0.Add(77 * 50 * time.Millisecond)) {
		t.Errorf("due(177) = %v, want t0+3.85s", got)
	}
	// A generator that sends bin 110 3 ms after its due time is 3 ms
	// late; one that sends it early has negative lateness.
	if got := s.lateness(110, t0.Add(503*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := s.lateness(110, t0.Add(499*time.Millisecond)); got != -time.Millisecond {
		t.Errorf("early lateness = %v, want -1ms", got)
	}
	// Latency counts from the due time, not from the send: a verdict
	// observed 12 ms after its bin was due reads 12 ms however late the
	// bin actually went out.
	if got := s.sinceDue(177, s.due(177).Add(12*time.Millisecond)); got != 12*time.Millisecond {
		t.Errorf("sinceDue = %v, want 12ms", got)
	}
}

func testReport() *funnel.Report {
	set := &topo.ImpactSet{ChangedService: "svc", TServers: []string{"a"}, CServers: []string{"b"}}
	key := func(m string) topo.KPIKey { return topo.KPIKey{Scope: topo.ScopeServer, Entity: "a", Metric: m} }
	return &funnel.Report{
		Change: changelog.Change{ID: "c1", Service: "svc", Servers: []string{"a"}},
		Set:    set,
		Assessments: []funnel.Assessment{
			{Key: key("mem.util"), Verdict: funnel.ChangedBySoftware, Alpha: 3.5, TStat: 9},
			{Key: key("cpu.ctxswitch"), Verdict: funnel.NoChange},
		},
	}
}

func TestOracleFlagsFlippedVerdict(t *testing.T) {
	want := testReport()
	same, err := sameReport(testReport(), want)
	if err != nil || !same {
		t.Fatalf("identical reports: same=%v err=%v", same, err)
	}
	flipped := testReport()
	flipped.Assessments[1].Verdict = funnel.ChangedBySoftware
	if same, _ := sameReport(flipped, want); same {
		t.Error("a flipped verdict passed the oracle")
	}
	if d := verdictDiffs(flipped, want); d != 1 {
		t.Errorf("verdictDiffs = %d, want 1", d)
	}
	// Timings live in the trace and must not count.
	traced := testReport()
	traced.Trace = &obs.Trace{ChangeID: "c1", Nanos: 12345}
	if same, _ := sameReport(traced, want); !same {
		t.Error("reports differing only in trace failed the oracle")
	}
}

func TestConfusionPrecisionRecall(t *testing.T) {
	var c confusion
	for _, pt := range [][2]bool{{true, true}, {true, true}, {true, false}, {false, true}, {false, false}} {
		c.add(pt[0], pt[1])
	}
	if c.precision() != 2.0/3 || c.recall() != 2.0/3 {
		t.Errorf("precision %g recall %g, want 2/3 each", c.precision(), c.recall())
	}
}

func TestReadbackFlagsDroppedMeasurement(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	keys := []topo.KPIKey{
		{Scope: topo.ScopeServer, Entity: "s1", Metric: "m"},
		{Scope: topo.ScopeServer, Entity: "s2", Metric: "m"},
	}
	const bins = 40
	want := func(i, bin int) float64 { return float64(100*i + bin) }
	fill := func(skip int) *monitor.Store {
		st := monitor.NewStore(start, time.Minute)
		for i, k := range keys {
			for b := 0; b < bins; b++ {
				if i*bins+b != skip {
					st.Append(monitor.Measurement{Key: k, T: start.Add(time.Duration(b) * time.Minute), V: want(i, b)})
				}
			}
		}
		return st
	}
	if checked, bad := readback(fill(-1), keys, bins, want, nil); checked != 2*bins || bad != 0 {
		t.Fatalf("complete store: checked %d bad %d, want %d and 0", checked, bad, 2*bins)
	}
	// Drop one measurement in the middle of the second series.
	if _, bad := readback(fill(bins+7), keys, bins, want, nil); bad != 1 {
		t.Errorf("one dropped measurement: bad = %d, want 1", bad)
	}
	// Drop the last measurement of a series: the series is short.
	if _, bad := readback(fill(bins-1), keys, bins, want, nil); bad != 1 {
		t.Errorf("dropped last measurement: bad = %d, want 1", bad)
	}
	// A wrong value is caught too.
	st := fill(-1)
	st.Append(monitor.Measurement{Key: keys[0], T: start.Add(3 * time.Minute), V: -1})
	if _, bad := readback(st, keys, bins, want, nil); bad != 1 {
		t.Errorf("one overwritten value: bad = %d, want 1", bad)
	}
}

func TestSpanSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("funnel", 1, -1)
	child := tr.begin("sst", 1, root)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	ls := tr.layers()
	f, s := ls["funnel"], ls["sst"]
	if f == nil || s == nil {
		t.Fatalf("layers = %v", ls)
	}
	if f.Self != f.Total-s.Total {
		t.Errorf("root self %v, want total %v minus child %v", f.Self, f.Total, s.Total)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, -1); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1)
}

func TestFastestCallsKeepsEachChangesFastest(t *testing.T) {
	lat := [][]float64{{5, 1, 3}, {10, 30, 20}}
	got := fastestCalls(lat, 2)
	want := []float64{1, 3, 10, 20}
	if len(got) != len(want) {
		t.Fatalf("fastestCalls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastestCalls = %v, want %v", got, want)
		}
	}
	if lat[0][0] != 5 {
		t.Error("fastestCalls reordered its input")
	}
}

func TestStratifyKeepsEqualStrataAndTheirKPIs(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes, p.HistoryDays, p.Seed = 64, 1, 3
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	stratify(sc, 16)
	if len(sc.Cases) != 16 {
		t.Fatalf("kept %d changes, want 16", len(sc.Cases))
	}
	counts := map[[2]int]int{}
	groups := map[string]bool{}
	for _, cs := range sc.Cases {
		effect := 0
		for _, tr := range cs.Truth {
			if tr.Changed {
				effect = 1
			}
		}
		counts[[2]int{len(cs.Change.Servers), effect}]++
		groups[caseGroup(cs.Change.Service)] = true
		for key := range cs.Truth {
			if _, ok := sc.Source.Series(key); !ok {
				t.Errorf("change %s lost KPI %v", cs.Change.ID, key)
			}
		}
	}
	for st, n := range counts {
		if n != 2 {
			t.Errorf("stratum %v holds %d changes, want 2 (all: %v)", st, n, counts)
		}
	}
	for _, k := range sc.Source.Keys() {
		if !groups[caseGroup(k.Entity)] {
			t.Errorf("KPI %v of a dropped change kept", k)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	plan := func(seed int64) *livePlan {
		p, err := newLivePlan(seed, []time.Duration{20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := plan(3), plan(3), plan(4)
	same, differ := true, false
	for i := 0; i < 200; i++ {
		same = same && a.value(i, i*7) == b.value(i, i*7)
		differ = differ || a.value(i, i*7) != c.value(i, i*7)
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v; other seed differs: %v", same, differ)
	}
}

// TestBenchmarkJSONMatchesCode keeps the benchmark definition at the
// repository root and the program that implements it in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: json %q / %q, code %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range def.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: json %+v, code %+v", i, m, c)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: json %+v, code %+v", i, m, c)
		}
	}
}
