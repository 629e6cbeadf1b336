package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/topo"
)

const (
	// inprocRows is how many rows of every KPI the in-process ingest
	// loop stores: more than one 512-bin chunk span, so chunks seal.
	inprocRows = 640
	// inprocFrameMeas is the measurement count per batch frame, well
	// under the 64 KiB frame bound at these key lengths.
	inprocFrameMeas = 1024
	// The WAL is synced and compacted on a fixed row cadence, so both
	// land inside spans.
	inprocSyncRows    = 16
	inprocCompactRows = 256
	// inprocSample is how many seeded keys are read back in full.
	inprocSample = 256
)

// ingestLayers times the ingest path's layer calls in-process on a
// fleet: every row of every KPI goes through EncodeBatchInto,
// DecodeBatchInto and AppendBatch, and on a fixed row cadence Sync and
// Compact, on a fresh WAL store — first untraced, then the same rows
// with a span around every call. A seeded sample of keys is then read
// back with RangeInto and checked value by value. It sets the wire,
// store-append, WAL and read figures and the loop's trace coverage.
func ingestLayers(cfg runConfig, keys []topo.KPIKey, value func(i, bin int) float64, start time.Time, tr *tracer, res *result) error {
	batch := make([]monitor.Measurement, len(keys))
	loop := func(tr *tracer) (time.Duration, *inProcStats, error) {
		dir, err := os.MkdirTemp(cfg.Dir, "ingest-trace-")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		store, err := monitor.OpenPersistent(dir, start, time.Minute, monitor.PersistOptions{CompactBytes: -1, SyncInterval: -1})
		if err != nil {
			return 0, nil, err
		}
		defer store.Close()
		stats := &inProcStats{meas: int64(inprocRows) * int64(len(keys))}
		cache := monitor.NewKeyCache()
		var buf []byte
		var decoded []monitor.Measurement
		t0 := time.Now()
		for row := 0; row < inprocRows; row++ {
			root := tr.begin("ingest.row", int64(row), -1)
			sp := tr.begin("loadgen.values", int64(row), root)
			t := start.Add(time.Duration(row) * time.Minute)
			for i := range batch {
				batch[i] = monitor.Measurement{Key: keys[i], T: t, V: value(i, row)}
			}
			tr.end(sp)
			for lo := 0; lo < len(batch); lo += inprocFrameMeas {
				frame := batch[lo:min(lo+inprocFrameMeas, len(batch))]
				sp := tr.begin("loadgen.encode", int64(row), root)
				if buf, err = monitor.EncodeBatchInto(buf[:0], frame); err != nil {
					return 0, nil, err
				}
				tr.end(sp)
				stats.bytes += int64(len(buf))
				sp = tr.begin("wire.decode", int64(row), root)
				if decoded, err = monitor.DecodeBatchInto(decoded[:0], buf, cache); err != nil {
					return 0, nil, err
				}
				tr.end(sp)
				sp = tr.begin("store.append", int64(row), root)
				store.AppendBatch(decoded)
				tr.end(sp)
			}
			if (row+1)%inprocSyncRows == 0 {
				sp := tr.begin("wal.sync", int64(row), root)
				err = store.Sync()
				tr.end(sp)
				if err != nil {
					return 0, nil, err
				}
			}
			if (row+1)%inprocCompactRows == 0 {
				stats.logBytes += logBytes(dir)
				sp := tr.begin("wal.compact", int64(row), root)
				err = store.Compact()
				tr.end(sp)
				stats.compactions++
				if err != nil {
					return 0, nil, err
				}
			}
			tr.end(root)
		}
		elapsed := time.Since(t0)
		if err := store.Sync(); err != nil {
			return 0, nil, err
		}
		stats.logBytes += logBytes(dir)
		if tr != nil {
			sample := sampleKeys(cfg.Seed, len(keys), inprocSample)
			sampled := make([]topo.KPIKey, len(sample))
			for j, i := range sample {
				sampled[j] = keys[i]
			}
			stats.readChecked, stats.readBad = readback(store, sampled, inprocRows, func(j, bin int) float64 { return value(sample[j], bin) }, tr)
		}
		return elapsed, stats, nil
	}

	untraced, _, err := loop(nil)
	if err != nil {
		return err
	}
	traced, stats, err := loop(tr)
	if err != nil {
		return err
	}
	res.check(stats.readBad == 0, "in-process ingest: %d of %d values read back missing or wrong", stats.readBad, stats.readChecked)

	ls := tr.layers()
	get := func(n string) *layerStat {
		if s := ls[n]; s != nil {
			return s
		}
		return &layerStat{}
	}
	meas := float64(stats.meas)
	res.layer["loadgen.encode_ns_per_meas"] = ratio(float64(get("loadgen.encode").Self), meas)
	res.layer["wire.decode_ns_per_meas"] = ratio(float64(get("wire.decode").Self), meas)
	res.layer["wire.bytes_per_meas"] = ratio(float64(stats.bytes), meas)
	res.layer["store.append_ns_per_meas"] = ratio(float64(get("store.append").Self), meas)
	res.layer["wal.sync_ms_p99"] = quantile(tr.durations("wal.sync"), 0.99) / 1e6
	res.layer["wal.compact_ms"] = ratio(ms(get("wal.compact").Total), float64(get("wal.compact").Count))
	res.layer["wal.bytes_per_meas"] = ratio(float64(stats.logBytes), meas)
	read := get("read")
	res.layer["read.ns_per_bin"] = ratio(float64(read.Self), float64(stats.readChecked))
	res.layer["read.bins_per_kpi"] = ratio(float64(stats.readChecked), float64(read.Count))
	res.layer["read.used_share"] = 1
	var layered time.Duration
	for _, n := range []string{"loadgen.values", "loadgen.encode", "wire.decode", "store.append", "wal.sync", "wal.compact"} {
		layered += get(n).Self
	}
	res.layer["trace.coverage"] = ratio(float64(layered), float64(untraced))
	res.note("in-process ingest: %d rows of %d KPIs, untraced %.2f s, traced %.2f s; %d compactions; read back %d values, %d bad",
		inprocRows, len(keys), untraced.Seconds(), traced.Seconds(), stats.compactions, stats.readChecked, stats.readBad)
	return nil
}

// inProcStats is the in-process loop's accounting.
type inProcStats struct {
	meas, bytes, logBytes int64
	compactions           int
	readChecked, readBad  int
}

// logBytes sums the sizes of the write-ahead logs in dir.
func logBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// sampleKeys picks k distinct indices below n from the seed.
func sampleKeys(seed int64, n, k int) []int {
	seen := map[int]bool{}
	var out []int
	for j := uint64(0); len(out) < min(k, n); j++ {
		i := int(unit(seed, 0x5a3, j) * float64(n))
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
