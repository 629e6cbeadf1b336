package detect

import "repro/internal/sst"

// Stream is the online form of Gate: feed KPI samples one bin at a
// time with Push and receive declarations the moment the persistence
// rule fires — the deployment mode of §5, where measurements arrive
// from the subscription push within a second of collection.
//
// A Stream keeps only the scorer's sliding window of samples, so its
// memory footprint is O(W) regardless of stream length. Scores lag the
// newest sample by the scorer's future span: pushing bin t yields the
// score of bin t−FutureSpan+1, exactly the wall-clock availability
// accounting of Detection.AvailableAt.
type Stream struct {
	det    *Gate
	cfg    sst.Config
	window []float64
	// absBase is the absolute bin index of window[0].
	absBase int
	// n is the number of samples pushed so far.
	n int
	// runs is the gate's persistence rule, stepped once per scored bin.
	runs runs
}

// NewStream wraps a detector for online use.
func NewStream(det *Gate) *Stream {
	cfg := det.Scorer.Config()
	return &Stream{
		det:    det,
		cfg:    cfg,
		window: make([]float64, 0, cfg.WindowSize()),
		runs:   det.newRuns(),
	}
}

// Declaration is an online detection event: the persistence rule was
// satisfied at wall-clock bin At for a run whose evidence started at
// Start.
type Declaration struct {
	// Start is the first above-threshold bin of the run.
	Start int
	// At is the wall-clock bin at which the declaration fired: the
	// sample pushed for bin At completed the evidence.
	At int
	// Score is the score of the bin that completed the persistence
	// requirement.
	Score float64
}

// Push appends the sample for the next bin and reports a declaration
// if the persistence rule fired on this push.
//
// The window is a fixed-capacity buffer: once full, each push shifts
// the contents down one slot in place (W is ~34 points, so the copy is
// a few cache lines) instead of the append-then-reslice pattern, whose
// progressively shrinking capacity forced a fresh allocation and a full
// copy on every steady-state push. With an allocation-free scorer this
// makes the whole Push path allocation-free.
func (s *Stream) Push(v float64) (Declaration, bool) {
	w := s.cfg.WindowSize()
	if len(s.window) == w {
		copy(s.window, s.window[1:])
		s.window[w-1] = v
		s.absBase++
	} else {
		s.window = append(s.window, v)
	}
	s.n++
	if len(s.window) < w {
		return Declaration{}, false
	}

	// The scoreable bin inside the window sits PastSpan from its start.
	tLocal := s.cfg.PastSpan()
	score := s.det.Scorer.ScoreAt(s.window, tLocal)
	if fired, _ := s.runs.step(s.absBase+tLocal, score); fired {
		return Declaration{
			Start: s.runs.cur.start,
			At:    s.n - 1, // wall clock: the bin just pushed
			Score: score,
		}, true
	}
	return Declaration{}, false
}

// Len returns the number of samples pushed so far.
func (s *Stream) Len() int { return s.n }

// InRun reports whether an above-threshold run is currently open.
func (s *Stream) InRun() bool { return s.runs.cur.start >= 0 }
