package funnel

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/topo"
)

// The tests in this file pin the online (§5) contract of the Streamer,
// the deployed engine: changes are registered while measurements flow,
// and each is assessed once its post-change window has arrived.

// onlineFixture wires a Streamer to a 3-server service with a memory
// leak on the treated server, measured by an agent writing into the
// streamer's store.
func onlineFixture(t *testing.T) (*Streamer, *monitor.Store, *monitor.Agent, changelog.Change, int) {
	t.Helper()
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	tp := topo.NewTopology()
	agent := monitor.NewAgent(store)
	const changeMin = 2*1440 + 300
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 3; i++ {
		srv := []string{"on-0", "on-1", "on-2"}[i]
		tp.Deploy("kv.cache", srv)
		treated := i == 0
		seed := rng.Int63()
		agent.Track(topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
			func(bin int) float64 {
				r := rand.New(rand.NewSource(seed + int64(bin)))
				v := 58 + 0.6*r.NormFloat64()
				if treated && bin >= changeMin {
					v += 9
				}
				return v
			})
	}
	sr, err := NewStreamer(store, tp, Config{
		ServerMetrics: []string{"mem.util"},
		HistoryDays:   2,
	}, StreamConfig{Workers: 1, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sr.Close)
	change := changelog.Change{
		ID: "kv-1", Type: changelog.Config, Service: "kv.cache",
		Servers: []string{"on-0"}, At: start.Add(changeMin * time.Minute),
	}
	return sr, store, agent, change, changeMin
}

func TestOnlineEmitsReportWhenWindowCompletes(t *testing.T) {
	sr, _, agent, change, changeMin := onlineFixture(t)

	// Feed history, register the change at its deployment time while
	// the agent keeps measuring, and wait for the report.
	agent.Run(changeMin + 1)
	if err := sr.RegisterChange(change); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(199)
	}()
	report := waitReport(t, sr.Reports())
	<-done
	flagged := report.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "on-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d", sr.Pending())
	}
}

func TestOnlineRegisterUnknownService(t *testing.T) {
	sr, _, _, change, _ := onlineFixture(t)
	change.Service = "nope"
	if err := sr.RegisterChange(change); err == nil {
		t.Fatal("unknown service should be rejected at registration")
	}
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after a rejected registration", sr.Pending())
	}
}

// TestOnlineRunAndClose registers before any data, publishes the whole
// scenario, and closes the engine: Close must close Reports() after
// exactly the one report the change earned.
func TestOnlineRunAndClose(t *testing.T) {
	sr, store, _, change, changeMin := onlineFixture(t)
	if err := sr.RegisterChange(change); err != nil {
		t.Fatal(err)
	}
	start := store.Start()
	rng := rand.New(rand.NewSource(78))
	total := changeMin + 200
	for bin := 0; bin < total; bin++ {
		ts := start.Add(time.Duration(bin) * time.Minute)
		for i, srv := range []string{"on-0", "on-1", "on-2"} {
			v := 58 + 0.6*rng.NormFloat64()
			if i == 0 && bin >= changeMin {
				v += 9
			}
			store.Append(monitor.Measurement{
				Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
				T:   ts, V: v,
			})
		}
	}
	first := waitReport(t, sr.Reports())
	sr.Close()

	reports := []*Report{first}
	for rep := range sr.Reports() {
		reports = append(reports, rep)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if len(reports[0].Flagged()) != 1 {
		t.Fatalf("flagged = %+v", reports[0].Flagged())
	}
}
