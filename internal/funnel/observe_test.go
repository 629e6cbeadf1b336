package funnel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/funnel"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sst"
	"repro/internal/workload"
)

// TestCollectorInvariancePull is the differential oracle for the
// observer contract in pull mode: over a config matrix, an assessor
// with a collector and one without must produce byte-identical
// report.ToJSON documents (trace excluded) and identical detections for
// every change of a gapped, confounded workload corpus. The collector
// must still have timed the scoring it watched.
func TestCollectorInvariancePull(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes = 4
	p.HistoryDays = 2
	p.ConfounderFraction = 0.5
	p.GapFraction = 0.01
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		name string
		cfg  funnel.Config
	}
	var matrix []variant
	for _, norm := range []bool{true, false} {
		for _, robust := range []bool{true, false} {
			for _, gp := range []funnel.GapPolicy{funnel.GapInterpolate, funnel.GapMask} {
				for _, workers := range []int{1, 4} {
					matrix = append(matrix, variant{
						name: fmt.Sprintf("norm=%v/robust=%v/gap=%d/workers=%d", norm, robust, gp, workers),
						cfg: funnel.Config{
							SST:           sst.Config{Omega: 9, Normalize: norm, RobustFilter: robust},
							GapPolicy:     gp,
							AssessWorkers: workers,
						},
					})
				}
			}
		}
	}
	for _, workers := range []int{1, 4} {
		matrix = append(matrix, variant{
			name: fmt.Sprintf("edivisive/workers=%d", workers),
			cfg:  funnel.Config{Detector: "edivisive", AssessWorkers: workers},
		})
	}

	cases := sc.Cases
	if testing.Short() {
		cases = cases[:2] // one change with an effect, one without
	}
	for _, v := range matrix {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			cfg.ServerMetrics = workload.ServerMetrics()
			cfg.InstanceMetrics = workload.InstanceMetrics()
			cfg.HistoryDays = 2
			plain, err := funnel.NewAssessor(sc.Source, sc.Topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			col := obs.NewCollector()
			cfg.Obs = col
			watched, err := funnel.NewAssessor(sc.Source, sc.Topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range cases {
				want, err := plain.Assess(cs.Change)
				if err != nil {
					t.Fatal(err)
				}
				got, err := watched.Assess(cs.Change)
				if err != nil {
					t.Fatal(err)
				}
				if got.Trace == nil || want.Trace != nil {
					t.Fatalf("%s: trace with collector %v, without %v; want only with", cs.Change.ID, got.Trace != nil, want.Trace != nil)
				}
				if a, b := reportJSON(t, got), reportJSON(t, want); !bytes.Equal(a, b) {
					t.Fatalf("%s: observed report differs from unobserved\nobserved:   %s\nunobserved: %s", cs.Change.ID, a, b)
				}
				for i := range got.Assessments {
					if g, w := got.Assessments[i].Detection, want.Assessments[i].Detection; g != w {
						t.Fatalf("%s %v: detection observed %+v, unobserved %+v", cs.Change.ID, got.Assessments[i].Key, g, w)
					}
				}
			}
			if col.StageCount(obs.StageSSTWindow) == 0 {
				t.Fatal("collector recorded no scored windows")
			}
		})
	}
}

// reportJSON renders a report's wire form without its trace, which
// carries wall-clock latencies.
func reportJSON(t *testing.T, r *funnel.Report) []byte {
	t.Helper()
	j := report.ToJSON(r)
	j.Trace = nil
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
