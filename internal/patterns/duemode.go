package patterns

import (
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// DUELedger aggregates typed DUE mechanisms over a campaign — the DUE
// counterpart of the SDC pattern Ledger. Integer counters keep it
// byte-stable under JSON round-trips and mergeable across shards; every
// DUE observation lands in exactly one bucket, with records that carry
// no typed mode (pre-taxonomy records, synthetic never-simulated DUEs
// like ECC-intercepted beam strikes) folded into Unattributed.
type DUELedger struct {
	Hang           int `json:"hang"`
	IllegalAddress int `json:"illegal_address"`
	SyncError      int `json:"sync_error"`
	Unattributed   int `json:"unattributed"`
}

// Count folds one observation into the ledger. Masked/SDC observations
// are ignored — the ledger is a DUE taxonomy, not an outcome tally.
func (l *DUELedger) Count(ob Observation) {
	if ob.Outcome != kernels.DUE {
		return
	}
	switch ob.DUEMode {
	case sim.DUEHang:
		l.Hang++
	case sim.DUEIllegalAddress:
		l.IllegalAddress++
	case sim.DUESyncError:
		l.SyncError++
	default:
		l.Unattributed++
	}
}

// DUEs returns the total DUE count the ledger has absorbed.
func (l DUELedger) DUEs() int {
	return l.Hang + l.IllegalAddress + l.SyncError + l.Unattributed
}

// DUEMix is a DUE ledger normalized to fractions — the distribution the
// static analyzer's estimate is cross-validated against. The four
// fields sum to 1 for a non-empty source ledger.
type DUEMix struct {
	Hang           float64 `json:"hang"`
	IllegalAddress float64 `json:"illegal_address"`
	SyncError      float64 `json:"sync_error"`
	Unattributed   float64 `json:"unattributed"`
}

// Mix normalizes the ledger. An empty ledger yields the zero DUEMix.
func (l DUELedger) Mix() DUEMix {
	n := l.DUEs()
	if n == 0 {
		return DUEMix{}
	}
	d := float64(n)
	return DUEMix{
		Hang:           float64(l.Hang) / d,
		IllegalAddress: float64(l.IllegalAddress) / d,
		SyncError:      float64(l.SyncError) / d,
		Unattributed:   float64(l.Unattributed) / d,
	}
}
