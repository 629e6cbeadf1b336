package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/changelog"
	"repro/internal/daemon"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The live-stream fleet: liveServices dark-launched services of
// liveServers servers each, two server KPIs per server (funnelserve's
// default metrics), so 4,000 KPIs. Each change deploys to the first
// liveTreated servers of its service; the rest are its control group.
const (
	liveServices    = 500
	liveServers     = 4
	liveTreated     = 2
	liveHistoryDays = 1
	// liveBinRate is the open-loop pace in bins per second (one bin is
	// one minute of KPI time), so 64,000 measurements a second. The
	// store fsyncs its logs once a second under the shard locks, which
	// stalls the bins that land meanwhile: at 16 bins/s that is one bin
	// in 16, so the stall sits inside the p95 rather than on its edge.
	liveBinRate = 16
	// Changes start at two a bin, so a 12.5-second half still holds
	// more than liveMinVerdicts changes whose verdicts fall inside it.
	liveChangesNum, liveChangesDen = 2, 1
	// liveLead is the gap between the end of set-up and the first due
	// bin, so the schedule does not start out late.
	liveLead = 200 * time.Millisecond
	// liveDrain bounds the wait for verdicts after the last bin: a
	// change without its final report by then has failed.
	liveDrain = 15 * time.Second
	// liveMinVerdicts is the sample count p95 needs in each half: at
	// least minTail samples above it.
	liveMinVerdicts = 200
	// livePublishers is the number of TCP publisher connections, at
	// most the CPU count of the reference host.
	livePublishers = 2
	// liveFrameServices is how many services share one batch frame;
	// frames split at service boundaries so each change's KPIs land in
	// one AppendBatch.
	liveFrameServices = 100
)

var liveMetrics = []string{"mem.util", "cpu.ctxswitch"}

// liveFirstBin is the first live bin: everything before it is history
// preloaded at set-up, one day plus room for the first change's
// pre-change window.
const liveFirstBin = liveHistoryDays*1440 + 120

// liveKPI is one generated series.
type liveKPI struct {
	key       topo.KPIKey
	svc       int
	treated   bool
	id        uint64
	level, sd float64
}

// liveChange is one scheduled software change.
type liveChange struct {
	change changelog.Change
	svc    int
	bin    int     // the change's bin
	shift  float64 // injected level shift in noise units (0: none)
}

// livePlan is the whole run's input, fixed by the seed before set-up.
type livePlan struct {
	seed    int64
	start   time.Time
	cfg     funnel.Config
	kpis    []liveKPI
	svcName []string
	servers [][]string
	// changeAt[svc] is the change bin of the service's change (-1 when
	// the run never changes it); shift[svc] its injected shift.
	changeAt []int
	shift    []float64
	phases   []livePhase
}

// livePhase is one open-loop stretch of bins with the changes it
// carries.
type livePhase struct {
	first, bins int
	changes     []liveChange
}

// readyLag is how many bins after its change bin a verdict waits for:
// the streamer assesses once bin change+WindowBins+FutureSpan is
// stored.
func (p *livePlan) readyLag() int {
	return p.cfg.WindowBins + p.cfg.SST.FutureSpan()
}

// newLivePlan lays out the fleet and the phases. Each phase publishes
// seconds·liveBinRate bins and starts changes at a steady rate, each on
// the next unchanged service, for as long as the change's verdict still
// falls inside the phase.
func newLivePlan(seed int64, phases []time.Duration) (*livePlan, error) {
	p := &livePlan{
		seed:  seed,
		start: time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC),
		cfg:   funnel.Config{ServerMetrics: liveMetrics, HistoryDays: liveHistoryDays},
	}
	// WindowBins is the assessor's default, spelled out for the verdict
	// lag arithmetic; the zero SST config's spans already resolve to the
	// deployed defaults.
	p.cfg.WindowBins = 60
	for s := 0; s < liveServices; s++ {
		// Services sit in sibling groups of six under a dotted parent:
		// the naming rule relates siblings, so each change's impact set
		// names five affected services.
		name := fmt.Sprintf("live.g%02d.svc%d", s/6, s%6)
		p.svcName = append(p.svcName, name)
		var srvs []string
		for k := 0; k < liveServers; k++ {
			srv := fmt.Sprintf("ls%03d-%d", s, k)
			srvs = append(srvs, srv)
			for mi, m := range liveMetrics {
				key := topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: m}
				id := keyHash(key.String())
				u := unit(seed, id, 1)
				level, sd := 40+30*u, 1+unit(seed, id, 2)
				if mi == 1 {
					level, sd = 2000+3000*u, (2000+3000*u)*0.03
				}
				p.kpis = append(p.kpis, liveKPI{key: key, svc: s, treated: k < liveTreated, id: id, level: level, sd: sd})
			}
		}
		p.servers = append(p.servers, srvs)
		p.changeAt = append(p.changeAt, -1)
		// Half the changes carry a shift of 4–12 noise units.
		shift := 0.0
		if unit(seed, uint64(s), 3) < 0.5 {
			shift = 4 + 8*unit(seed, uint64(s), 4)
		}
		p.shift = append(p.shift, shift)
	}
	bin, svc := liveFirstBin, 0
	for _, d := range phases {
		bins := int(d.Seconds() * liveBinRate)
		ph := livePhase{first: bin, bins: bins}
		for j := 0; j*liveChangesDen/liveChangesNum+p.readyLag() < bins && svc < liveServices; j++ {
			at := bin + j*liveChangesDen/liveChangesNum
			p.changeAt[svc] = at
			ph.changes = append(ph.changes, liveChange{
				change: changelog.Change{
					ID: fmt.Sprintf("chg-%03d", svc), Type: changelog.Upgrade, Service: p.svcName[svc],
					Servers: p.servers[svc][:liveTreated], At: p.binTime(at),
				},
				svc: svc, bin: at, shift: p.shift[svc],
			})
			svc++
		}
		if len(ph.changes) == 0 {
			return nil, fmt.Errorf("live phase of %v is too short for one verdict (%d bins, verdict lag %d)", d, bins, p.readyLag())
		}
		p.phases = append(p.phases, ph)
		bin += bins
	}
	return p, nil
}

func (p *livePlan) binTime(bin int) time.Time { return p.start.Add(time.Duration(bin) * time.Minute) }

// value is KPI i's measurement at bin: level plus Gaussian noise, plus
// the injected shift on treated servers from the change bin on.
func (p *livePlan) value(i, bin int) float64 {
	k := &p.kpis[i]
	v := k.level + k.sd*gauss(p.seed, k.id, uint64(bin))
	if at := p.changeAt[k.svc]; k.treated && at >= 0 && bin >= at {
		v += p.shift[k.svc] * k.sd
	}
	return v
}

// topology mirrors what the daemon learns from DeployService and
// Register, for the offline reference.
func (p *livePlan) topology() *topo.Topology {
	tp := topo.NewTopology()
	for s, name := range p.svcName {
		for _, srv := range p.servers[s] {
			tp.Deploy(name, srv)
		}
	}
	return tp
}

// liveSys is the system under test: a WAL store with a day of
// history, the streaming daemon on it, and the publisher connections.
type liveSys struct {
	dir   string
	store *monitor.Store
	d     *daemon.Daemon
	conns []net.Conn
}

func (s *liveSys) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.d != nil {
		s.d.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// build runs the set-up funnelserve -stream -data performs, plus the
// preload of history: open the WAL store, append a day of every KPI
// with AppendBatch, start the daemon with its collector and deploy the
// fleet, then connect the publishers.
func (p *livePlan) build(scratch string) (*liveSys, error) {
	dir, err := os.MkdirTemp(scratch, "live-wal-")
	if err != nil {
		return nil, err
	}
	sys := &liveSys{dir: dir}
	if sys.store, err = monitor.OpenPersistent(dir, p.start, time.Minute, monitor.PersistOptions{}); err != nil {
		sys.close()
		return nil, err
	}
	const preloadBins = 8
	batch := make([]monitor.Measurement, 0, preloadBins*len(p.kpis))
	for lo := 0; lo < liveFirstBin; lo += preloadBins {
		batch = batch[:0]
		for b := lo; b < lo+preloadBins && b < liveFirstBin; b++ {
			t := p.binTime(b)
			for i := range p.kpis {
				batch = append(batch, monitor.Measurement{Key: p.kpis[i].key, T: t, V: p.value(i, b)})
			}
		}
		sys.store.AppendBatch(batch)
	}
	// Fold the preload's logs into a snapshot, as a daemon restarted on
	// a day of history would have done at recovery, so no compaction of
	// set-up data runs inside the measured phase.
	if err := sys.store.Compact(); err != nil {
		sys.close()
		return nil, err
	}
	sys.d, err = daemon.Start(daemon.Config{
		Store:      sys.store,
		Pipeline:   p.cfg,
		IngestAddr: "127.0.0.1:0",
		DebugAddr:  "127.0.0.1:0",
		Stream:     true,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	for s, name := range p.svcName {
		if err := sys.d.DeployService(name, p.servers[s]...); err != nil {
			sys.close()
			return nil, err
		}
	}
	for i := 0; i < livePublishers; i++ {
		c, err := net.Dial("tcp", sys.d.IngestAddr().String())
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.conns = append(sys.conns, c)
	}
	return sys, nil
}

// phaseOut is what one open-loop phase observed.
type phaseOut struct {
	sched schedule
	b2v   []float64 // ms, one per change with a report
	// b2vShifted holds the samples of changes with an injected shift.
	b2vShifted []float64
	late       []float64 // ms, one per publisher and bin
	register   []float64 // ms, one per registration
	reports    map[string]*funnel.Report
	regErrs    int
	dups       int
	lastSeen   time.Time
	// encode and wire accounting over every published frame.
	encodeNs   int64
	meas       int64
	frameBytes int64
}

// runPhase drives one phase open loop: the publishers send every bin at
// its due time whatever the daemon is doing, a registrar registers each
// change when its bin is due, and a receiver stamps every report.
func (p *livePlan) runPhase(sys *liveSys, ph livePhase, tr *tracer) (*phaseOut, error) {
	out := &phaseOut{
		sched:   schedule{t0: time.Now().Add(liveLead), first: ph.first, period: time.Second / liveBinRate},
		reports: map[string]*funnel.Report{},
	}
	want := map[string]*liveChange{}
	for i := range ph.changes {
		want[ph.changes[i].change.ID] = &ph.changes[i]
	}
	received := map[string]time.Time{}
	stop := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for len(received) < len(want) {
			select {
			case rep, ok := <-sys.d.Reports():
				if !ok {
					return
				}
				now := time.Now()
				id := rep.Change.ID
				c := want[id]
				if c == nil {
					continue // a change of an earlier phase reported twice
				}
				if _, dup := received[id]; dup {
					out.dups++
					continue
				}
				received[id] = now
				out.reports[id] = rep
				tr.record("daemon.report", int64(c.svc), -1, out.sched.due(c.bin+p.readyLag()), now)
			case <-stop:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	errc := make(chan error, livePublishers)
	for pub := 0; pub < livePublishers; pub++ {
		wg.Add(1)
		go func(pub int) {
			defer wg.Done()
			late, enc, meas, bytes, err := p.publish(sys.conns[pub], pub, ph, out.sched, tr)
			mu.Lock()
			out.late = append(out.late, late...)
			out.encodeNs += enc
			out.meas += meas
			out.frameBytes += bytes
			mu.Unlock()
			if err != nil {
				errc <- err
			}
		}(pub)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ph.changes {
			c := &ph.changes[i]
			time.Sleep(time.Until(out.sched.due(c.bin)))
			sp := tr.begin("daemon.register", int64(c.svc), -1)
			t0 := time.Now()
			err := sys.d.Register(daemon.RegisterRequest{
				ID: c.change.ID, Type: "upgrade", Service: c.change.Service,
				Servers: c.change.Servers, At: c.change.At,
			})
			d := time.Since(t0)
			tr.end(sp)
			mu.Lock()
			out.register = append(out.register, ms(d))
			if err != nil {
				out.regErrs++
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		close(stop)
		<-recvDone
		return nil, fmt.Errorf("publisher: %w", err)
	}
	select {
	case <-recvDone:
	case <-time.After(time.Until(out.sched.due(ph.first+ph.bins)) + liveDrain):
		close(stop)
		<-recvDone
	}
	for id, at := range received {
		c := want[id]
		d := ms(out.sched.sinceDue(c.bin+p.readyLag(), at))
		out.b2v = append(out.b2v, d)
		if c.shift > 0 {
			out.b2vShifted = append(out.b2vShifted, d)
		}
		if at.After(out.lastSeen) {
			out.lastSeen = at
		}
	}
	return out, nil
}

// publish is one publisher connection's open loop: at each bin's due
// time it encodes its services' measurements into batch frames and
// writes them. It returns the per-bin lateness in ms and the encode
// and wire accounting.
func (p *livePlan) publish(conn net.Conn, pub int, ph livePhase, sched schedule, tr *tracer) (late []float64, encodeNs, meas, bytes int64, err error) {
	// A service's KPIs are contiguous in p.kpis, so cutting frames every
	// liveFrameServices services of this publisher cuts at service
	// boundaries.
	var idx, frameEnds []int
	for i := range p.kpis {
		if p.kpis[i].svc%livePublishers == pub {
			idx = append(idx, i)
		}
	}
	perFrame := liveFrameServices * liveServers * len(liveMetrics)
	for end := perFrame; end < len(idx); end += perFrame {
		frameEnds = append(frameEnds, end)
	}
	frameEnds = append(frameEnds, len(idx))
	batch := make([]monitor.Measurement, len(idx))
	for j, i := range idx {
		batch[j].Key = p.kpis[i].key
	}
	w := bufio.NewWriterSize(conn, 1<<16)
	var buf []byte
	for bin := ph.first; bin < ph.first+ph.bins; bin++ {
		time.Sleep(time.Until(sched.due(bin)))
		sent := time.Now()
		late = append(late, float64(sched.lateness(bin, sent))/1e6)
		root := tr.begin("loadgen.publish", int64(bin), -1)
		t := p.binTime(bin)
		for j, i := range idx {
			batch[j].T, batch[j].V = t, p.value(i, bin)
		}
		lo := 0
		for _, hi := range frameEnds {
			sp := tr.begin("loadgen.encode", int64(bin), root)
			t0 := time.Now()
			buf, err = monitor.EncodeBatchInto(buf[:0], batch[lo:hi])
			encodeNs += int64(time.Since(t0))
			tr.end(sp)
			if err != nil {
				return late, encodeNs, meas, bytes, err
			}
			if err = monitor.WriteFrame(w, buf); err != nil {
				return late, encodeNs, meas, bytes, err
			}
			meas += int64(hi - lo)
			bytes += int64(len(buf))
			lo = hi
		}
		err = w.Flush()
		tr.end(root)
		if err != nil {
			return late, encodeNs, meas, bytes, err
		}
	}
	return late, encodeNs, meas, bytes, nil
}

// runLiveStream is the live-stream workload. The run is two open-loop
// halves on one daemon, each with its own changes. Untraced, the
// end-to-end figures come from the half with the lower median
// bin-to-verdict: interference from anything else on the host only
// ever slows a half, so the cleaner half is the steadier estimate of
// the system's own latency. Traced, the first half runs untraced and
// the second with spans, so the two differ only in the tracing.
func runLiveStream(cfg runConfig) (*result, error) {
	res := newResult()
	if cfg.Trace {
		zeroLayers(res)
	}
	plan, err := newLivePlan(cfg.Seed, []time.Duration{cfg.Seconds / 2, cfg.Seconds / 2})
	if err != nil {
		return nil, err
	}
	sys, setupS, err := repeatSetup(cfg.setups(3), func() (*liveSys, error) { return plan.build(cfg.Dir) }, (*liveSys).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	res.e2e["setup_s"] = setupS
	col := sys.d.Collector()

	runtime.GC()
	var outs []*phaseOut
	var tr *tracer
	var ctr0 map[string]int64
	var st0 map[string]obs.HistogramSnapshot
	var syncs []float64 // ms, the traced half's WAL syncs
	for i, ph := range plan.phases {
		traced := cfg.Trace && i == 1
		var stopSync func() []float64
		if traced {
			tr = newTracer()
			ctr0, st0 = counters(col), stages(col)
			stopSync = syncEvery(sys.store, 250*time.Millisecond, tr)
		}
		rt0 := readRuntime()
		out, err := plan.runPhase(sys, ph, tr)
		if stopSync != nil {
			syncs = stopSync()
		}
		if err != nil {
			return nil, err
		}
		if traced {
			res.runtimeLayer(rt0, readRuntime(), len(out.reports))
		}
		outs = append(outs, out)
	}
	res.e2e["heap_live_mib"] = heapLiveMiB()

	// Every change must have exactly one report, equal to an offline
	// assessment of the final store under the same configuration.
	if err := sys.store.Sync(); err != nil {
		res.check(false, "final WAL sync: %v", err)
	}
	refCfg := plan.cfg
	refCfg.Obs = obs.NewCollector()
	ref, err := funnel.NewAssessor(sys.store, plan.topology(), refCfg)
	if err != nil {
		return nil, err
	}
	var unobserved *funnel.Assessor
	if cfg.Trace {
		if unobserved, err = funnel.NewAssessor(sys.store, plan.topology(), plan.cfg); err != nil {
			return nil, err
		}
	}
	var conf confusion
	unobservedDiff := 0
	var late []float64
	for pi, ph := range plan.phases {
		out := outs[pi]
		late = append(late, out.late...)
		res.check(out.regErrs == 0, "half %d: %d registrations failed", pi+1, out.regErrs)
		res.check(out.dups == 0, "half %d: %d changes reported more than once", pi+1, out.dups)
		if !cfg.Trace {
			res.check(len(out.b2v) >= liveMinVerdicts, "half %d: only %d verdicts; p95 needs at least %d", pi+1, len(out.b2v), liveMinVerdicts)
		}
		for _, c := range ph.changes {
			res.Attempted++
			got := out.reports[c.change.ID]
			if got == nil {
				res.Failed++
				res.note("change %s: no report within %v of its last bin", c.change.ID, liveDrain)
				continue
			}
			want, err := ref.Assess(c.change)
			if err != nil {
				return nil, fmt.Errorf("reference assess %s: %w", c.change.ID, err)
			}
			same, err := sameReport(got, want)
			if err != nil {
				return nil, err
			}
			if !same {
				res.Failed++
				res.note("change %s: report differs from the offline reference (%d KPI verdicts differ)", c.change.ID, verdictDiffs(got, want))
			}
			for _, a := range got.Assessments {
				conf.add(a.Verdict == funnel.ChangedBySoftware, c.shift > 0)
			}
			if unobserved != nil {
				u, err := unobserved.Assess(c.change)
				if err != nil {
					return nil, fmt.Errorf("unobserved assess %s: %w", c.change.ID, err)
				}
				unobservedDiff += verdictDiffs(got, u)
			}
		}
	}

	// Honest open loop: a generator that fell behind its own schedule
	// by more than a bin, or an engine that shed work at this rate,
	// invalidates the run.
	lateP99 := quantile(late, 0.99)
	period := ms(outs[0].sched.period)
	res.check(lateP99 <= period, "generator p99 lateness %.2f ms exceeds one bin period (%.0f ms): run invalid", lateP99, period)
	sheds := col.Counter(obs.CtrStreamSheds)
	res.check(sheds == 0, "streaming engine shed %d advance tasks at %d bins/s: rate above what it sustains", sheds, liveBinRate)

	best := outs[0]
	for i, out := range outs {
		p := highestPercentile(len(out.b2v))
		res.note("live-stream half %d: %d verdicts, b2v p50 %.2f ms p%g %.2f ms (shifted changes: p50 %.2f ms over %d)",
			i+1, len(out.b2v), median(out.b2v), p, quantile(out.b2v, p/100), median(out.b2vShifted), len(out.b2vShifted))
		if median(out.b2v) < median(best.b2v) {
			best = out
		}
	}
	res.e2e["p50_ms"] = median(best.b2v)
	res.e2e["p95_ms"] = quantile(best.b2v, 0.95)
	res.e2e["ops_per_s"] = ratio(float64(len(best.b2v)), best.lastSeen.Sub(best.sched.t0).Seconds())
	res.e2e["precision"] = conf.precision()
	res.e2e["recall"] = conf.recall()
	res.note("live-stream: %d KPIs at %d bins/s (%d meas/s) over %d publishers, %d changes; generator late p99 %.3f ms; per-KPI precision %.4f recall %.4f (tp %d fp %d fn %d)",
		len(plan.kpis), liveBinRate, liveBinRate*len(plan.kpis), livePublishers, res.Attempted, lateP99,
		conf.precision(), conf.recall(), conf.tp, conf.fp, conf.fn)

	if cfg.Trace {
		res.tr = tr
		base, last := outs[0], outs[1]
		ctr := counters(col)
		// The wire, append and WAL layers run inside the daemon, so they
		// are timed in-process on the same fleet; the figures the live
		// run measures itself are set after and take precedence.
		keys := make([]topo.KPIKey, len(plan.kpis))
		for i := range plan.kpis {
			keys[i] = plan.kpis[i].key
		}
		if err := ingestLayers(cfg, keys, plan.value, plan.start, tr, res); err != nil {
			return nil, err
		}
		res.layer["wal.sync_ms_p99"] = quantile(syncs, 0.99)
		hits := ctr[obs.CtrStreamCacheHits] - ctr0[obs.CtrStreamCacheHits]
		misses := ctr[obs.CtrStreamCacheMisses] - ctr0[obs.CtrStreamCacheMisses]
		collectorLayers(res, ctr0, ctr, st0, stages(col))
		res.layer["stream.advances"] = float64(ctr[obs.CtrStreamAdvances] - ctr0[obs.CtrStreamAdvances])
		res.layer["stream.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		res.layer["stream.sheds"] = float64(ctr[obs.CtrStreamSheds] - ctr0[obs.CtrStreamSheds])
		res.layer["wal.compactions"] = float64(ctr[obs.CtrCompactions] - ctr0[obs.CtrCompactions])
		res.layer["admin.register_ms_p99"] = quantile(last.register, 0.99)
		res.layer["loadgen.late_p99_ms"] = quantile(last.late, 0.99)
		res.layer["loadgen.encode_ns_per_meas"] = ratio(float64(last.encodeNs), float64(last.meas))
		res.layer["wire.bytes_per_meas"] = ratio(float64(last.frameBytes), float64(last.meas))
		res.layer["oracle.unobserved_diff"] = float64(unobservedDiff)
		res.layer["trace.overhead_pct"] = 100 * (median(last.b2v)/median(base.b2v) - 1)
		storeLayer(res, sys.store)
	}
	return res, nil
}

// syncEvery times Store.Sync at a fixed cadence, as the store's own
// background pass does, until the returned stop function is called;
// stop returns the sync durations in ms.
func syncEvery(store *monitor.Store, every time.Duration, tr *tracer) func() []float64 {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- out
				return
			case <-tick.C:
				sp := tr.begin("wal.sync", 0, -1)
				t0 := time.Now()
				store.Sync()
				out = append(out, ms(time.Since(t0)))
				tr.end(sp)
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}
