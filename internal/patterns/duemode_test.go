package patterns

import (
	"testing"

	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

func dueOb(m sim.DUEMode) Observation {
	return Observe(kernels.TrialRecord{Outcome: kernels.DUE, DUEMode: m}, nil)
}

// TestDUELedgerCounting drives every mode through Observe+Count and
// checks the bucket math, the untyped-record fallback, and that non-DUE
// outcomes never land in the ledger.
func TestDUELedgerCounting(t *testing.T) {
	var l DUELedger
	l.Count(dueOb(sim.DUEHang))
	l.Count(dueOb(sim.DUEHang))
	l.Count(dueOb(sim.DUEIllegalAddress))
	l.Count(dueOb(sim.DUESyncError))
	l.Count(dueOb(sim.DUEUnattributed))
	// A pre-taxonomy or never-simulated DUE record carries DUENone; the
	// ledger folds it into Unattributed rather than dropping it.
	l.Count(dueOb(sim.DUENone))
	// Masked and SDC observations are outside the taxonomy.
	l.Count(Observe(kernels.TrialRecord{Outcome: kernels.Masked}, nil))
	l.Count(Observe(sdc(f32Word(geoF32(), 0, 0, 1, 2)), geoF32()))

	want := DUELedger{Hang: 2, IllegalAddress: 1, SyncError: 1, Unattributed: 2}
	if l != want {
		t.Fatalf("ledger = %+v, want %+v", l, want)
	}
	if l.DUEs() != 6 {
		t.Fatalf("DUEs() = %d, want 6", l.DUEs())
	}
}

func TestDUELedgerMix(t *testing.T) {
	a := DUELedger{Hang: 4, IllegalAddress: 1, SyncError: 2, Unattributed: 1}
	m := a.Mix()
	if got := m.Hang + m.IllegalAddress + m.SyncError + m.Unattributed; got < 0.999 || got > 1.001 {
		t.Fatalf("mix does not sum to 1: %+v", m)
	}
	if m.Hang != 0.5 {
		t.Fatalf("Hang share = %v, want 0.5", m.Hang)
	}
	if (DUELedger{}).Mix() != (DUEMix{}) {
		t.Fatal("empty ledger must yield the zero mix")
	}
}
