// Package eval reproduces the paper's evaluation methodology (§4):
// confusion-matrix accounting per KPI type with the ×86 true-negative
// scaling rule of §4.2.1, detection-delay distributions (Fig. 5),
// per-window computational-cost measurement (Table 2), and the
// deployment-style precision accounting of Table 3.
package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Confusion is a weighted confusion matrix.
type Confusion struct {
	TP, TN, FP, FN float64
}

// Add records one outcome with weight 1.
func (c *Confusion) Add(predicted, actual bool) { c.AddWeighted(predicted, actual, 1) }

// AddWeighted records one outcome with the given weight. §4.2.1 scales
// the counts of the no-change cases by 86 (= 6194/72) to approximate
// the full population from the labelled sample.
func (c *Confusion) AddWeighted(predicted, actual bool, weight float64) {
	switch {
	case predicted && actual:
		c.TP += weight
	case predicted && !actual:
		c.FP += weight
	case !predicted && actual:
		c.FN += weight
	default:
		c.TN += weight
	}
}

// Merge adds another matrix into c.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.TN += o.TN
	c.FP += o.FP
	c.FN += o.FN
}

// Total returns the weighted item count.
func (c Confusion) Total() float64 { return c.TP + c.TN + c.FP + c.FN }

// Precision returns TP/(TP+FP), or NaN when undefined.
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// Recall returns TP/(TP+FN), or NaN when undefined.
func (c Confusion) Recall() float64 { return ratio(c.TP, c.TP+c.FN) }

// TNR returns TN/(TN+FP), or NaN when undefined.
func (c Confusion) TNR() float64 { return ratio(c.TN, c.TN+c.FP) }

// Accuracy returns (TP+TN)/Total, or NaN when empty.
func (c Confusion) Accuracy() float64 { return ratio(c.TP+c.TN, c.Total()) }

// ratio guards divide-by-zero with NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// Prediction is one method's verdict for one treated KPI of one case.
type Prediction struct {
	// Changed is the method's claim that the KPI changed *because of*
	// the software change.
	Changed bool
	// AvailableAt is the wall-clock bin at which the claim could first
	// be made (meaningful when Changed).
	AvailableAt int
}

// Method is an assessment method under evaluation: FUNNEL, the
// improved SST without DiD, CUSUM or MRLS.
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// AssessCase returns a prediction for every treated KPI of the
	// case.
	AssessCase(sc *workload.Scenario, cs workload.Case) (map[topo.KPIKey]Prediction, error)
}

// MetricClass maps the corpus metrics to their generated KPI character;
// the evaluation buckets items by it, as §4.2.1 buckets by seasonal/
// stationary/variable.
func MetricClass(metric string) stats.KPIType {
	switch metric {
	case workload.MetricPageViews, workload.MetricEffectiveClicks:
		return stats.Seasonal
	case workload.MetricMemUtil, workload.MetricQueueLen:
		return stats.Stationary
	default:
		return stats.Variable
	}
}

// Result aggregates a method's evaluation outcome.
type Result struct {
	Method string
	// ByType holds one weighted confusion matrix per KPI type.
	ByType map[stats.KPIType]*Confusion
	// Delays holds per-true-positive detection delays in minutes.
	Delays []float64
}

// Overall returns the merged confusion matrix.
func (r *Result) Overall() Confusion {
	var c Confusion
	for _, m := range r.ByType {
		c.Merge(*m)
	}
	return c
}

// DelayQuantile returns the q-quantile of the recorded delays.
func (r *Result) DelayQuantile(q float64) float64 { return stats.Quantile(r.Delays, q) }

// DelayCCDF returns the empirical CCDF of the recorded delays (Fig. 5).
func (r *Result) DelayCCDF() []stats.CCDFPoint { return stats.CCDF(r.Delays) }

// Options tunes an evaluation run.
type Options struct {
	// NegativeWeight scales outcomes of cases without injected effects
	// (§4.2.1 uses 86). 0 means 1.
	NegativeWeight float64
}

// Run evaluates every method on the scenario.
func Run(sc *workload.Scenario, methods []Method, opts Options) ([]*Result, error) {
	w := opts.NegativeWeight
	if w <= 0 {
		w = 1
	}
	results := make([]*Result, 0, len(methods))
	for _, m := range methods {
		res := &Result{
			Method: m.Name(),
			ByType: map[stats.KPIType]*Confusion{
				stats.Seasonal:   {},
				stats.Stationary: {},
				stats.Variable:   {},
			},
		}
		for _, cs := range sc.Cases {
			preds, err := m.AssessCase(sc, cs)
			if err != nil {
				return nil, fmt.Errorf("eval: %s on %s: %w", m.Name(), cs.Change.ID, err)
			}
			caseHasEffect := false
			for _, tr := range cs.Truth {
				if tr.Changed {
					caseHasEffect = true
					break
				}
			}
			weight := 1.0
			if !caseHasEffect {
				weight = w
			}
			for key, truth := range cs.Truth {
				pred := preds[key]
				res.ByType[MetricClass(key.Metric)].AddWeighted(pred.Changed, truth.Changed, weight)
				if pred.Changed && truth.Changed {
					delay := float64(pred.AvailableAt - truth.StartBin)
					if delay < 0 {
						delay = 0
					}
					res.Delays = append(res.Delays, delay)
				}
			}
		}
		sort.Float64s(res.Delays)
		results = append(results, res)
	}
	return results, nil
}

// TimePerWindow measures the average per-window cost of fn over n
// evaluations of a pre-built closure. It is intentionally simple: the
// Go benchmark harness in bench_test.go provides the rigorous numbers;
// this function feeds the funnelbench CLI.
func TimePerWindow(fn func(), n int) time.Duration {
	if n < 1 {
		n = 1
	}
	fn() // warm up
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// CoresForMillionKPIs converts a per-window cost into the number of CPU
// cores needed to score one million KPIs every minute, the last row of
// Table 2.
func CoresForMillionKPIs(cost time.Duration) int {
	perCorePerMinute := float64(time.Minute) / float64(cost)
	return int(math.Ceil(1e6 / perCorePerMinute))
}
