package patterns

import (
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// Observation is one trial classified for aggregation: the ternary
// outcome plus, for SDCs, the pattern class and, for DUEs, the typed
// mechanism. Classified is false for SDCs whose diff could not be
// mapped onto an output grid (no declared geometry, corruption outside
// the region, or a synthetic outcome that was never simulated, like an
// ECC-intercepted beam strike).
type Observation struct {
	Outcome    kernels.Outcome
	Class      Class
	Classified bool
	DUEMode    sim.DUEMode
}

// Observe classifies a trial record against an output geometry. Non-SDC
// outcomes and unclassifiable diffs yield Classified=false; DUE
// outcomes carry the record's typed mode through for DUELedger.
func Observe(rec kernels.TrialRecord, geo *kernels.OutputRegion) Observation {
	ob := Observation{Outcome: rec.Outcome, DUEMode: rec.DUEMode}
	if rec.Outcome != kernels.SDC {
		return ob
	}
	cls, err := Classify(rec, geo)
	if err != nil {
		return ob
	}
	ob.Class, ob.Classified = cls, true
	return ob
}

// Ledger aggregates SDC pattern classes over a campaign. The integer
// counters make it byte-stable under JSON round-trips and mergeable
// across shards; every SDC lands in exactly one spatial bucket
// (Unclassified included) and classified SDCs additionally land in one
// magnitude bucket.
type Ledger struct {
	Single    int `json:"single"`
	SameRow   int `json:"same_row"`
	SameCol   int `json:"same_col"`
	Block     int `json:"block"`
	Scattered int `json:"scattered"`

	Critical  int `json:"critical"`
	Tolerable int `json:"tolerable"`

	// Unclassified counts SDCs that carry no classifiable diff.
	Unclassified int `json:"unclassified"`
}

// Count folds one observation into the ledger. Masked/DUE observations
// are ignored — the ledger is an SDC taxonomy, not an outcome tally.
func (l *Ledger) Count(ob Observation) {
	if ob.Outcome != kernels.SDC {
		return
	}
	if !ob.Classified {
		l.Unclassified++
		return
	}
	switch ob.Class.Spatial {
	case Single:
		l.Single++
	case SameRow:
		l.SameRow++
	case SameCol:
		l.SameCol++
	case Block:
		l.Block++
	default:
		l.Scattered++
	}
	if ob.Class.Magnitude == Critical {
		l.Critical++
	} else {
		l.Tolerable++
	}
}

// SDCs returns the total SDC count the ledger has absorbed.
func (l Ledger) SDCs() int {
	return l.Single + l.SameRow + l.SameCol + l.Block + l.Scattered + l.Unclassified
}

// Mix is a ledger normalized to fractions of SDCs — the form the
// two-level estimator propagates, since dynamically weighted
// combinations of per-site ledgers are no longer integer counts. All
// fields are fractions in [0,1]; the spatial fields (Unclassified
// included) sum to 1 for a non-empty source ledger.
type Mix struct {
	Single    float64 `json:"single"`
	SameRow   float64 `json:"same_row"`
	SameCol   float64 `json:"same_col"`
	Block     float64 `json:"block"`
	Scattered float64 `json:"scattered"`

	Critical  float64 `json:"critical"`
	Tolerable float64 `json:"tolerable"`

	Unclassified float64 `json:"unclassified"`
}

// Mix normalizes the ledger. An empty ledger yields the zero Mix.
func (l Ledger) Mix() Mix {
	n := l.SDCs()
	if n == 0 {
		return Mix{}
	}
	d := float64(n)
	return Mix{
		Single:       float64(l.Single) / d,
		SameRow:      float64(l.SameRow) / d,
		SameCol:      float64(l.SameCol) / d,
		Block:        float64(l.Block) / d,
		Scattered:    float64(l.Scattered) / d,
		Critical:     float64(l.Critical) / d,
		Tolerable:    float64(l.Tolerable) / d,
		Unclassified: float64(l.Unclassified) / d,
	}
}

// AddScaled accumulates w·o into m (the two-level propagation step).
func (m *Mix) AddScaled(o Mix, w float64) {
	m.Single += w * o.Single
	m.SameRow += w * o.SameRow
	m.SameCol += w * o.SameCol
	m.Block += w * o.Block
	m.Scattered += w * o.Scattered
	m.Critical += w * o.Critical
	m.Tolerable += w * o.Tolerable
	m.Unclassified += w * o.Unclassified
}
