package analysis

import (
	"fmt"
	"math"
	"testing"

	"gpurel/internal/isa"
)

// fullSweeps is backwardFixpoint without the stale set: every
// definition is stepped on every sweep. It is the reference the
// shortcut is checked against.
func (bf *bitflow) fullSweeps(step func(i int) (changed, moved bool)) {
	n := len(bf.p.Instrs)
	for iter := 0; iter < 400; iter++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			if c, _ := step(i); c {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// ReferenceVectors runs the forward pass and both backward passes of
// AnalyzeLaunch with full sweeps and returns the ACE and DUE-mode
// vectors they reach.
func ReferenceVectors(p *isa.Program, bounds *Bounds) ([]ACEVector, []DUEModeVec) {
	bf := newBitflow(p, buildDefUse(p, BuildCFG(p)), bounds)
	bf.forward()
	vec := bf.newACEVectors()
	var missSDC, missDUE [64]float64
	bf.fullSweeps(func(i int) (bool, bool) {
		return bf.stepVec(i, vec, &missSDC, &missDUE)
	})
	mv := newModeVecs(vec)
	inDiv, bodyMem := divRegions(p), backedgeBodyMem(p)
	var miss [ModeCount][64]float64
	bf.fullSweeps(func(i int) (bool, bool) {
		return bf.stepModes(i, vec, mv, inDiv, bodyMem, &miss)
	})
	return vec, mv
}

// VectorBitsDiff returns a description of the first entry where the
// real vectors differ from the reference in any float64 bit, or "" when
// they are bit-identical.
func VectorBitsDiff(vec, refVec []ACEVector, mv, refMV []DUEModeVec) string {
	if len(vec) != len(refVec) || len(mv) != len(refMV) {
		return "vector counts differ"
	}
	firstDiff := func(a, b *[64]float64) int {
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return k
			}
		}
		return -1
	}
	for i := range vec {
		if vec[i].Width != refVec[i].Width {
			return fmt.Sprintf("instr %d: ACE width %d, reference %d", i, vec[i].Width, refVec[i].Width)
		}
		if b := firstDiff(&vec[i].SDC, &refVec[i].SDC); b >= 0 {
			return fmt.Sprintf("instr %d bit %d: SDC %v, reference %v", i, b, vec[i].SDC[b], refVec[i].SDC[b])
		}
		if b := firstDiff(&vec[i].DUE, &refVec[i].DUE); b >= 0 {
			return fmt.Sprintf("instr %d bit %d: DUE %v, reference %v", i, b, vec[i].DUE[b], refVec[i].DUE[b])
		}
	}
	for i := range mv {
		if mv[i].Width != refMV[i].Width {
			return fmt.Sprintf("instr %d: mode width %d, reference %d", i, mv[i].Width, refMV[i].Width)
		}
		for m := DUEModeK(0); m < ModeCount; m++ {
			if b := firstDiff(&mv[i].Ch[m], &refMV[i].Ch[m]); b >= 0 {
				return fmt.Sprintf("instr %d bit %d: %s %v, reference %v", i, b, m, mv[i].Ch[m][b], refMV[i].Ch[m][b])
			}
		}
	}
	return ""
}

// selfEdgeLoopProg is a counted loop whose counter update reads its own
// previous value (IADD R1, R1, 1): the counter's only def-use edge that
// changes after the first sweep is the self-edge, so the stale set must
// re-evaluate a definition that moved during its own evaluation.
func selfEdgeLoopProg() *isa.Program {
	inc := iadd(rr(1), rr(1), isa.RZ)
	inc.Srcs[1] = isa.ImmInt(1)
	return prog("selfedge",
		movi(rr(1)),                // 0: counter = 0
		movi(rr(2)),                // 1: address
		ldgT(rr(3), rr(2)),         // 2: trip count, unknown
		inc,                        // 3: loop: counter += 1 (self-edge)
		isetp(pp(1), rr(1), rr(3)), // 4: counter < trip count
		braIf(pp(1), false, 3),     // 5: backedge
		stg(rr(2), rr(1)),          // 6
		exit(),                     // 7
	)
}

func TestStaleSweepSelfEdgeLoop(t *testing.T) {
	p := selfEdgeLoopProg()
	self := false
	for _, e := range buildDefUse(p, BuildCFG(p)).Out[3] {
		self = self || e.Use == 3
	}
	if !self {
		t.Fatal("counter update has no self-edge; the program no longer tests one")
	}
	for _, bounds := range []*Bounds{nil, {GridX: 4, GridY: 1, BlockThreads: 64}} {
		r := AnalyzeLaunch(p, bounds)
		refVec, refMV := ReferenceVectors(p, bounds)
		if d := VectorBitsDiff(r.ACEVec, refVec, r.DUEModeVec, refMV); d != "" {
			t.Errorf("bounds %v: stale sweep differs from full sweep: %s", bounds, d)
		}
		if r.ACEVec[3].MeanSDC() == 0 {
			t.Errorf("bounds %v: counter carries no SDC mass; the loop no longer propagates", bounds)
		}
	}
}

// TestStepReportsSignedZeroMove pins the stale set's notion of a change
// to the stored bits: rewriting -0 as +0 passes the eps test and == but
// is still a move, so the definition's users get re-evaluated. The
// proven-trip loop masks its input with AND 7, so it has provably dead
// (+0) bits to flip.
func TestStepReportsSignedZeroMove(t *testing.T) {
	p := provenTripProg()
	bf := newBitflow(p, buildDefUse(p, BuildCFG(p)), nil)
	bf.forward()
	vec, mv := ReferenceVectors(p, nil)
	inDiv, bodyMem := divRegions(p), backedgeBodyMem(p)
	negZero := math.Copysign(0, -1)
	var missSDC, missDUE [64]float64
	var miss [ModeCount][64]float64
	vecDone, modeDone := false, false
	for i := range vec {
		for b := 0; b < vec[i].Width; b++ {
			if !vecDone && math.Float64bits(vec[i].SDC[b]) == 0 {
				vec[i].SDC[b] = negZero
				changed, moved := bf.stepVec(i, vec, &missSDC, &missDUE)
				if changed || !moved {
					t.Errorf("ACE instr %d bit %d: -0 -> +0 gave changed=%v moved=%v, want false true", i, b, changed, moved)
				}
				vecDone = true
			}
			if !modeDone && math.Float64bits(mv[i].Ch[ModeSyncError][b]) == 0 {
				mv[i].Ch[ModeSyncError][b] = negZero
				changed, moved := bf.stepModes(i, vec, mv, inDiv, bodyMem, &miss)
				if changed || !moved {
					t.Errorf("mode instr %d bit %d: -0 -> +0 gave changed=%v moved=%v, want false true", i, b, changed, moved)
				}
				modeDone = true
			}
		}
	}
	if !vecDone || !modeDone {
		t.Fatalf("no +0 entry to flip (ACE %v, modes %v)", vecDone, modeDone)
	}
}
