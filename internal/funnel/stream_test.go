package funnel

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// streamFixture is a 3-server service with a +9 shift on on-0 at
// changeMin. Values are precomputed so the streaming and batch paths
// can consume the exact same measurements in the exact same order.
type streamFixture struct {
	start     time.Time
	servers   []string
	values    [][]float64 // [server][bin]
	change    changelog.Change
	changeMin int
	total     int
}

func newStreamFixture() *streamFixture {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	const changeMin = 2*1440 + 300
	total := changeMin + 200
	servers := []string{"on-0", "on-1", "on-2"}
	rng := rand.New(rand.NewSource(91))
	values := make([][]float64, len(servers))
	for i := range servers {
		values[i] = make([]float64, total)
	}
	for bin := 0; bin < total; bin++ {
		for i := range servers {
			v := 58 + 0.6*rng.NormFloat64()
			if i == 0 && bin >= changeMin {
				v += 9
			}
			values[i][bin] = v
		}
	}
	return &streamFixture{
		start:   start,
		servers: servers,
		values:  values,
		change: changelog.Change{
			ID: "kv-s1", Type: changelog.Config, Service: "kv.cache",
			Servers: []string{"on-0"}, At: start.Add(changeMin * time.Minute),
		},
		changeMin: changeMin,
		total:     total,
	}
}

func (f *streamFixture) buildTopo() *topo.Topology {
	tp := topo.NewTopology()
	for _, srv := range f.servers {
		tp.Deploy("kv.cache", srv)
	}
	return tp
}

func (f *streamFixture) key(srv string) topo.KPIKey {
	return topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"}
}

// feed appends bins [from, to) for every server, skipping (srv, bin)
// pairs the gap function claims.
func (f *streamFixture) feed(store *monitor.Store, from, to int, gap func(srv string, bin int) bool) {
	for bin := from; bin < to; bin++ {
		ts := f.start.Add(time.Duration(bin) * time.Minute)
		for i, srv := range f.servers {
			if gap != nil && gap(srv, bin) {
				continue
			}
			store.Append(monitor.Measurement{Key: f.key(srv), T: ts, V: f.values[i][bin]})
		}
	}
}

// countingCache wraps the streamer's score cache so tests can prove
// the fast path actually served the assessment, independent of the
// obs-collector configuration.
type countingCache struct {
	inner        scoreCache
	hits, misses atomic.Int64
}

func (c *countingCache) cachedScores(key topo.KPIKey, absLo int, segment []float64) []float64 {
	out := c.inner.cachedScores(key, absLo, segment)
	if out != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return out
}

// sameFloat compares bit-for-bit, treating any-NaN-equals-any-NaN as
// the report comparison needs (payload bits are not meaningful).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// compareReports requires the streaming report to be indistinguishable
// from the batch one, field by field (traces excluded: they carry
// wall-clock latencies).
func compareReports(t *testing.T, stream, batch *Report) {
	t.Helper()
	if stream.ChangeBin != batch.ChangeBin {
		t.Fatalf("ChangeBin: stream %d, batch %d", stream.ChangeBin, batch.ChangeBin)
	}
	if len(stream.Assessments) != len(batch.Assessments) {
		t.Fatalf("assessment count: stream %d, batch %d", len(stream.Assessments), len(batch.Assessments))
	}
	for i := range stream.Assessments {
		s, b := stream.Assessments[i], batch.Assessments[i]
		if s.Key != b.Key {
			t.Fatalf("assessment %d key: stream %v, batch %v", i, s.Key, b.Key)
		}
		if s.Verdict != b.Verdict {
			t.Fatalf("%v verdict: stream %v, batch %v", s.Key, s.Verdict, b.Verdict)
		}
		if s.Detection != b.Detection {
			t.Fatalf("%v detection: stream %+v, batch %+v", s.Key, s.Detection, b.Detection)
		}
		if !sameFloat(s.Alpha, b.Alpha) || !sameFloat(s.TStat, b.TStat) {
			t.Fatalf("%v DiD: stream (%v, %v), batch (%v, %v)", s.Key, s.Alpha, s.TStat, b.Alpha, b.TStat)
		}
		if s.ControlKind != b.ControlKind || s.TrendWarning != b.TrendWarning {
			t.Fatalf("%v control: stream (%v, %v), batch (%v, %v)",
				s.Key, s.ControlKind, s.TrendWarning, b.ControlKind, b.TrendWarning)
		}
		if !sameFloat(s.GapFraction, b.GapFraction) || !sameFloat(s.ControlSimilarity, b.ControlSimilarity) {
			t.Fatalf("%v gap/similarity: stream (%v, %v), batch (%v, %v)",
				s.Key, s.GapFraction, s.ControlSimilarity, b.GapFraction, b.ControlSimilarity)
		}
		se, be := "", ""
		if s.Err != nil {
			se = s.Err.Error()
		}
		if b.Err != nil {
			be = b.Err.Error()
		}
		if se != be {
			t.Fatalf("%v err: stream %q, batch %q", s.Key, se, be)
		}
	}
}

func waitReport(t *testing.T, ch <-chan *Report) *Report {
	t.Helper()
	select {
	case rep := <-ch:
		if rep == nil {
			t.Fatal("report channel closed early")
		}
		return rep
	case <-time.After(30 * time.Second):
		t.Fatal("no streaming report before timeout")
	}
	return nil
}

// runStreamCase drives one full streaming-vs-batch equivalence round:
// register, feed bin-by-bin, take the streaming report, then run a
// fresh batch assessor over the same store and demand bit-identity.
func runStreamCase(t *testing.T, cfg Config, scfg StreamConfig, gap func(srv string, bin int) bool, wantHits bool) {
	t.Helper()
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cc := &countingCache{inner: sr}
	sr.assessor.scores = cc

	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	if err := sr.RegisterChange(fx.change); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	fx.feed(store, 0, fx.total, gap)
	rep := waitReport(t, sr.Reports())
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after report", sr.Pending())
	}
	if wantHits && cc.hits.Load() == 0 {
		t.Fatalf("streaming report was served without a single cache hit (misses=%d)", cc.misses.Load())
	}

	// The batch truth over the identical store, once with the
	// streamer's collector setting and once with it flipped (nil ↔
	// collector): watching must not change a single field. A separate
	// collector keeps the streaming one's counters clean.
	for _, observed := range []bool{cfg.Obs != nil, cfg.Obs == nil} {
		bcfg := cfg
		bcfg.Obs = nil
		if observed {
			bcfg.Obs = obs.NewCollector()
		}
		ba, err := NewAssessor(store, fx.buildTopo(), bcfg)
		if err != nil {
			t.Fatal(err)
		}
		brep, err := ba.Assess(fx.change)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, rep, brep)
	}

	// Sanity beyond equality: the shift on on-0 must be flagged.
	flagged := rep.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "on-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
}

// interiorGap knocks out bins [changeMin+10, changeMin+18) of control
// server on-1 — inside the assessment window, surrounded by real bins,
// so gap interpolation stays local to the window on both paths.
func interiorGap(changeMin int) func(srv string, bin int) bool {
	return func(srv string, bin int) bool {
		return srv == "on-1" && bin >= changeMin+10 && bin < changeMin+18
	}
}

func TestStreamerMatchesBatchSliding(t *testing.T) {
	// Obs nil: the assessor's batch path is the stateful sliding sweep,
	// so the streaming side must drive the resumable sweep.
	runStreamCase(t, Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2},
		StreamConfig{Workers: 1, PollInterval: 20 * time.Millisecond}, nil, true)
}

func TestStreamerMatchesBatchSlidingGapsWorkers(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, AssessWorkers: 4}
	fxGap := interiorGap(2*1440 + 300)
	runStreamCase(t, cfg, StreamConfig{Workers: 4, PollInterval: 20 * time.Millisecond}, fxGap, true)
}

func TestStreamerMatchesBatchInstrumented(t *testing.T) {
	// Obs set: the collector only watches, so the streaming side drives
	// the same resumable sliding sweep as without one, timed once per
	// advance.
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Obs: obs.NewCollector()}
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, nil, true)
	if cfg.Obs.Counter(obs.CtrStreamCacheHits) == 0 {
		t.Fatal("collector saw no stream cache hits")
	}
	if cfg.Obs.Counter(obs.CtrStreamAdvances) == 0 {
		t.Fatal("collector saw no stream advances")
	}
}

func TestStreamerMatchesBatchEdivisive(t *testing.T) {
	// A non-SST detector streams through a sliding wrapper whose sweep
	// falls back to per-window ScoreAt, scoring only the positions its
	// own (wider) geometry allows.
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Detector: "edivisive"}
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, nil, true)
}

func TestStreamerMatchesBatchGapMask(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, GapPolicy: GapMask}
	fxGap := interiorGap(2*1440 + 300)
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, fxGap, true)
}

// TestStreamerLateWriteInvalidates rewrites a bin inside the consumed
// window prefix and demands the streamer notice (prefix bit-compare),
// restart the state, and still converge to the batch answer.
func TestStreamerLateWriteInvalidates(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Obs: obs.NewCollector()}
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, StreamConfig{Workers: 1, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	// Feed into the middle of the assessment window, let the sweep
	// advance, then overwrite an already-consumed bin.
	mid := fx.changeMin + 20
	fx.feed(store, 0, mid, nil)
	deadline := time.Now().Add(10 * time.Second)
	for cfg.Obs.Counter(obs.CtrStreamAdvances) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("streamer never advanced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	late := fx.changeMin - 40
	store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(late) * time.Minute), V: 99})
	fx.feed(store, mid, fx.total, nil)
	rep := waitReport(t, sr.Reports())

	if cfg.Obs.Counter(obs.CtrStreamInvalidations) == 0 {
		t.Fatal("late write inside the window did not invalidate the stream state")
	}
	bcfg := cfg
	bcfg.Obs = obs.NewCollector()
	ba, err := NewAssessor(store, fx.buildTopo(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := ba.Assess(fx.change)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, rep, brep)
}

// TestStreamerStaleProbeCooldown severs the treated feed mid-window:
// the streamer must emit exactly one provisional report (the gap gate
// makes the severed KPI Inconclusive — never a flag), stay pending
// through arbitrarily many poll ticks, and deliver the real verdict
// once the feed is backfilled.
func TestStreamerStaleProbeCooldown(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, StreamConfig{Workers: 1, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	severedAt := fx.changeMin - 30
	sever := func(srv string, bin int) bool { return srv == "on-0" && bin >= severedAt }
	fx.feed(store, 0, fx.total, sever)

	rep := waitReport(t, sr.Reports())
	for _, a := range rep.Assessments {
		if a.Key == fx.key("on-0") && a.Verdict != Inconclusive {
			t.Fatalf("severed probe verdict = %v, want Inconclusive", a.Verdict)
		}
		if a.Verdict == ChangedBySoftware {
			t.Fatalf("severed feed produced a flag: %+v", a)
		}
	}
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d after provisional report, want 1", sr.Pending())
	}
	// Many more poll ticks with the feed still severed: no re-emission.
	time.Sleep(150 * time.Millisecond)
	select {
	case rep2 := <-sr.Reports():
		t.Fatalf("severed feed re-emitted: %+v", rep2.Assessments)
	default:
	}

	// Backfill the severed bins: the real verdict materializes and
	// matches batch.
	for bin := severedAt; bin < fx.total; bin++ {
		store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(bin) * time.Minute), V: fx.values[0][bin]})
	}
	final := waitReport(t, sr.Reports())
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sr.Pending())
	}
	ba, err := NewAssessor(store, fx.buildTopo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := ba.Assess(fx.change)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, final, brep)
	if len(final.Flagged()) != 1 {
		t.Fatalf("recovered verdict not flagged: %+v", final.Assessments)
	}
}

// TestOnlineStaleProbeCooldown registers a change only after its
// probe feed has already gone stale: the first poll tick forces one
// provisional report, not one per tick, and a backfilled feed still
// yields the real verdict.
func TestOnlineStaleProbeCooldown(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	sr, err := NewStreamer(store, fx.buildTopo(), Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}, StreamConfig{Workers: 1, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	severedAt := fx.changeMin - 30
	sever := func(srv string, bin int) bool { return srv == "on-0" && bin >= severedAt }
	fx.feed(store, 0, fx.total, sever)
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}

	rep := waitReport(t, sr.Reports())
	for _, a := range rep.Assessments {
		if a.Verdict == ChangedBySoftware {
			t.Fatalf("severed feed produced a flag: %+v", a)
		}
	}
	time.Sleep(50 * time.Millisecond) // ~50 poll ticks against a severed feed
	select {
	case rep2 := <-sr.Reports():
		t.Fatalf("severed probe re-emitted: %+v", rep2.Assessments)
	default:
	}
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (awaiting recovery)", sr.Pending())
	}

	for bin := severedAt; bin < fx.total; bin++ {
		store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(bin) * time.Minute), V: fx.values[0][bin]})
	}
	final := waitReport(t, sr.Reports())
	if len(final.Flagged()) != 1 {
		t.Fatalf("recovered verdict not flagged: %+v", final.Assessments)
	}
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sr.Pending())
	}
}

// TestStreamerRegisterRejects covers registration-time validation: bad
// registrations fail fast instead of wedging or panicking the engine.
func TestStreamerRegisterRejects(t *testing.T) {
	fx := newStreamFixture()
	cases := []struct {
		name    string
		edit    func(c *changelog.Change)
		wantErr string
	}{
		{"server not hosting", func(c *changelog.Change) { c.Servers = []string{"on-0", "elsewhere"} }, "does not host"},
		{"no servers", func(c *changelog.Change) { c.Servers = nil }, "names no servers"},
		{"duplicate id", nil, "already registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := monitor.NewStore(fx.start, time.Minute)
			sr, err := NewStreamer(store, fx.buildTopo(), Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}, StreamConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			c := fx.change
			if tc.edit == nil {
				if err := sr.RegisterChange(c); err != nil {
					t.Fatal(err)
				}
			} else {
				tc.edit(&c)
			}
			err = sr.RegisterChange(c)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
