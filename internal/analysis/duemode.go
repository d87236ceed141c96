package analysis

import (
	"math"

	"gpurel/internal/isa"
)

// Static DUE-mode classification: a second backward pass over the
// def-use graph that splits every site's per-bit DUE probability
// (ACEVector.DUE, the authoritative total from propagateVec) across the
// simulator's typed DUE mechanisms — how a flipped bit kills the
// kernel, not just whether it does.
//
// Terminal sinks route by mechanism: a flipped address bit that can
// leave the statically proven valid range is an illegal-address DUE
// (low bits whose page-window containment is proven contribute
// nothing); a flipped predicate feeding a loop backedge or an EXIT is a
// hang; one feeding BAR/SYNC/SSY — or a branch inside an SSY divergence
// region — is a sync error. Transitive edges reuse the exact per-opcode
// stencil of the SDC/DUE pass (dataStencil), so a mode's mass
// attenuates through dataflow precisely as its parent DUE mass does.
// Per bit the four channels are renormalized to sum to the authoritative
// DUE[b]; DUE mass whose every routed channel is provably zero falls
// into the Unattributed residual rather than being silently dropped.
//
// Soundness mirrors propagateVec: the channels start at zero and the
// per-channel noisy-or is bounded and monotone within an iteration, so
// the capped fixpoint cannot attribute more mass than DUE[b] — the
// renormalization step makes the partition exact at every iteration.

// DUEModeK indexes the static mode channels, in the display order of
// sim.DUEModes(). The analysis package deliberately does not import the
// simulator; faultinj bridges the two taxonomies when cross-validating.
type DUEModeK uint8

// Static DUE-mode channels.
const (
	ModeHang DUEModeK = iota
	ModeIllegalAddress
	ModeSyncError
	ModeUnattributed
	// ModeCount is the number of channels.
	ModeCount
)

// String names the channel with the simulator's DUEMode spelling.
func (m DUEModeK) String() string {
	switch m {
	case ModeHang:
		return "hang"
	case ModeIllegalAddress:
		return "illegal-address"
	case ModeSyncError:
		return "sync-error"
	}
	return "unattributed"
}

// DUEModeVec is the per-bit DUE-mode split of one definition: for every
// destination bit, Ch[m][b] is the share of ACEVector.DUE[b] attributed
// to mode m. The four channels sum to the site's DUE channel exactly.
type DUEModeVec struct {
	Width int
	Ch    [ModeCount][64]float64
}

// at reads one channel bit, zero outside the window.
func (v *DUEModeVec) at(m DUEModeK, idx int) float64 {
	if idx < 0 || idx >= v.Width {
		return 0
	}
	return v.Ch[m][idx]
}

// Mean averages one channel over the window.
func (v *DUEModeVec) Mean(m DUEModeK) float64 {
	if v.Width == 0 {
		return 0
	}
	var s float64
	for b := 0; b < v.Width; b++ {
		s += v.Ch[m][b]
	}
	return s / float64(v.Width)
}

// meanFrom averages one channel over bits >= from (the multiply-spread
// shape, mirroring dataContrib's meanFrom).
func (v *DUEModeVec) meanFrom(m DUEModeK, from int) float64 {
	if v.Width == 0 {
		return 0
	}
	if from >= v.Width {
		from = v.Width - 1
	}
	var s float64
	for b := from; b < v.Width; b++ {
		s += v.Ch[m][b]
	}
	return s / float64(v.Width-from)
}

// divRegions marks the instructions that lie strictly inside an SSY
// divergence region (after the SSY, before its reconvergence target) —
// the span where a corrupted branch predicate derails reconvergence
// instead of merely redirecting control flow.
func divRegions(p *isa.Program) []bool {
	in := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op != isa.OpSSY || ins.Target <= i || ins.Target > len(p.Instrs) {
			continue
		}
		for j := i + 1; j < ins.Target; j++ {
			in[j] = true
		}
	}
	return in
}

// backedgeBodyMem marks, per conditional backedge BRA, whether its loop
// body touches memory. A corrupted trip count in such a loop mostly
// dies as an illegal address, not a hang: the overrun iterations run
// the body with indices past the proven bound, and the out-of-bounds
// access kills the kernel long before the watchdog would (the dominant
// DUE conversion the injection campaigns observe). A memory-free body
// can only spin.
func backedgeBodyMem(p *isa.Program) []bool {
	mem := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op != isa.OpBRA || ins.Target > i || ins.Target < 0 {
			continue
		}
		for j := ins.Target; j <= i; j++ {
			if p.Instrs[j].Op.IsMemory() {
				mem[i] = true
				break
			}
		}
	}
	return mem
}

// propagateModes runs the mode-split fixpoint over the authoritative
// DUE vectors.
func (bf *bitflow) propagateModes(vec []ACEVector) []DUEModeVec {
	mv := newModeVecs(vec)
	inDiv := divRegions(bf.p)
	bodyMem := backedgeBodyMem(bf.p)
	var miss [ModeCount][64]float64
	bf.backwardFixpoint(func(i int) (bool, bool) {
		return bf.stepModes(i, vec, mv, inDiv, bodyMem, &miss)
	})
	return mv
}

// newModeVecs returns the all-zero starting point of propagateModes.
func newModeVecs(vec []ACEVector) []DUEModeVec {
	mv := make([]DUEModeVec, len(vec))
	for i := range mv {
		mv[i].Width = vec[i].Width
	}
	return mv
}

// stepModes re-evaluates definition i's mode split from its uses'
// current splits and stores it, with stepVec's changed/moved report.
func (bf *bitflow) stepModes(i int, vec []ACEVector, mv []DUEModeVec, inDiv, bodyMem []bool,
	miss *[ModeCount][64]float64) (changed, moved bool) {
	const eps = 1e-9
	w := mv[i].Width
	if w == 0 {
		return false, false
	}
	for m := range miss {
		for b := 0; b < w; b++ {
			miss[m][b] = 1
		}
	}
	for _, e := range bf.du.Out[i] {
		bf.modeEdgeContrib(i, e, mv, inDiv, bodyMem, w, miss)
	}
	v := &mv[i]
	for b := 0; b < w; b++ {
		var raw [ModeCount]float64
		var tot float64
		for m := range raw {
			raw[m] = 1 - miss[m][b]
			tot += raw[m]
		}
		due := vec[i].DUE[b]
		var next [ModeCount]float64
		if tot > 0 {
			for m := range raw {
				next[m] = due * (raw[m] / tot)
			}
		} else if due > 0 {
			// No routed channel claims this bit's DUE mass (every
			// mechanism proof fired, or the site only reaches DUE
			// through edges the router cannot type): residual.
			next[ModeUnattributed] = due
		}
		for m := range next {
			if abs(next[m]-v.Ch[m][b]) > eps {
				changed = true
			}
			if math.Float64bits(next[m]) != math.Float64bits(v.Ch[m][b]) {
				moved = true
			}
			v.Ch[m][b] = next[m]
		}
	}
	return changed, moved
}

// modeEdgeContrib folds one def-use edge into the per-mode miss
// products, mirroring edgeContrib's DUE-channel routing.
func (bf *bitflow) modeEdgeContrib(i int, e UseEdge, mv []DUEModeVec, inDiv, bodyMem []bool,
	w int, miss *[ModeCount][64]float64) {
	useIn := &bf.p.Instrs[e.Use]
	lo := 32 * int(e.DefReg)
	if w == 1 {
		lo = 0
	}
	if lo >= w {
		return
	}
	hi := min(lo+32, w)
	apply := func(m DUEModeK, b int, d float64) {
		miss[m][b] *= 1 - d
	}

	switch e.Kind {
	case EdgeStoreVal:
		return // stored data reaches output, never a DUE
	case EdgeAddr:
		// The illegal-address sink, with the page-window containment
		// proof: flipping a bit below AddrPageBits only permutes the
		// address inside its 2^AddrPageBits-aligned window, so when the
		// address value's proven range already fits one window starting
		// at 0, the flipped access provably stays in bounds and the bit
		// carries no illegal-address exposure. High bits always can
		// escape; unproven low bits keep the heuristic low-bit weight.
		provable := w == 32 && e.DefReg == 0 && e.UseReg == 0
		var own ValueRange
		if provable {
			own = bf.facts[i].R
		}
		for b := lo; b < hi; b++ {
			rb := b - lo
			if rb < AddrPageBits {
				if provable && own.Lo >= 0 && own.Hi < int64(1)<<AddrPageBits {
					continue
				}
				apply(ModeIllegalAddress, b, AddrLowDUE)
			} else {
				apply(ModeIllegalAddress, b, AddrHighDUE)
			}
		}
		return
	}

	uv := &mv[e.Use]
	switch e.Kind {
	case EdgeBranchGuard:
		branchModeContrib(e, useIn, inDiv, bodyMem, apply)
		return
	case EdgeGuard:
		for m := DUEModeK(0); m < ModeCount; m++ {
			apply(m, 0, PassGuard*uv.Mean(m))
		}
		return
	case EdgeSelCond:
		for m := DUEModeK(0); m < ModeCount; m++ {
			apply(m, 0, PassSelCond*uv.Mean(m))
		}
		return
	case EdgeCmp:
		bf.cmpModeContrib(i, e, useIn, uv, w, lo, hi, apply)
		return
	}
	bf.dataModeContrib(e, useIn, uv, lo, hi, apply)
}

// branchModeContrib routes the branch-guard DUE sink (SinkBranchDUE at
// the predicate's single bit) to the mechanism the guarded control
// instruction can actually reach when its predicate flips.
func branchModeContrib(e UseEdge, useIn *isa.Instr, inDiv, bodyMem []bool,
	apply func(DUEModeK, int, float64)) {
	switch useIn.Op {
	case isa.OpEXIT:
		// A thread that spuriously skips (or takes) its EXIT stalls the
		// grid: the scheduler deadlocks or the watchdog fires.
		apply(ModeHang, 0, SinkBranchDUE)
	case isa.OpBAR, isa.OpSYNC, isa.OpSSY:
		// Flipping participation in a barrier, a reconvergence SYNC, or
		// the SSY that arms it corrupts the divergence machinery.
		apply(ModeSyncError, 0, SinkBranchDUE)
	case isa.OpBRA:
		switch {
		case useIn.Target <= e.Use && bodyMem[e.Use]:
			// A backedge guard is the loop's trip-count condition. When
			// the body touches memory, overrun iterations mostly die on an
			// out-of-bounds access before the watchdog can fire; only the
			// memory-free fraction of failures spins to a hang.
			apply(ModeHang, 0, BackedgeMemHangFrac*SinkBranchDUE)
			apply(ModeIllegalAddress, 0, (1-BackedgeMemHangFrac)*SinkBranchDUE)
		case useIn.Target <= e.Use:
			// A memory-free loop body has nothing to fault on: the wrong
			// trip decision can only spin the loop past its bound.
			apply(ModeHang, 0, SinkBranchDUE)
		case inDiv[e.Use]:
			// A divergent branch inside an SSY region repartitions the
			// warp against the armed reconvergence point.
			apply(ModeSyncError, 0, SinkBranchDUE)
		default:
			// A forward branch outside any divergence region: the wrong
			// path can overrun the program (hang) or fail in ways the
			// router cannot type statically.
			apply(ModeHang, 0, BranchForwardHangFrac*SinkBranchDUE)
			apply(ModeUnattributed, 0, (1-BranchForwardHangFrac)*SinkBranchDUE)
		}
	default:
		apply(ModeUnattributed, 0, SinkBranchDUE)
	}
}

// cmpModeContrib mirrors cmpContrib for the mode channels: bits whose
// flip provably cannot move the operand across the comparison threshold
// contribute to no mode (this is the trip-count range proof — a fully
// proven band of a loop counter carries zero hang exposure), and
// unproven bits attenuate the predicate's own mode split by PassCmp.
func (bf *bitflow) cmpModeContrib(i int, e UseEdge, useIn *isa.Instr, uv *DUEModeVec,
	w, lo, hi int, apply func(DUEModeK, int, float64)) {
	vb := useIn.SrcValueBits(int(e.Slot))
	provable := useIn.Op == isa.OpISETP && w == 32 && e.DefReg == 0 && e.UseReg == 0
	var own, other ValueRange
	if provable {
		own = bf.facts[i].R
		other = bf.operandFact(e.Use, 1-int(e.Slot)).R
	}
	for b := lo; b < hi; b++ {
		rb := b - lo
		if rb >= vb {
			continue
		}
		if provable {
			delta := int64(1) << uint(rb)
			expanded := rExpand(own, delta)
			var known bool
			if int(e.Slot) == 0 {
				_, known = cmpAlways(useIn.Cmp, expanded, other)
			} else {
				_, known = cmpAlways(useIn.Cmp, other, expanded)
			}
			if known {
				continue
			}
		}
		for m := DUEModeK(0); m < ModeCount; m++ {
			apply(m, b, PassCmp*uv.Ch[m][0])
		}
	}
}

// dataModeContrib applies the shared per-opcode stencil (dataStencil)
// to the mode channels, so mode mass flows through arithmetic exactly
// as the parent DUE mass does.
func (bf *bitflow) dataModeContrib(e UseEdge, useIn *isa.Instr, uv *DUEModeVec,
	lo, hi int, apply func(DUEModeK, int, float64)) {
	vb := useIn.SrcValueBits(int(e.Slot))
	slot := int(e.Slot)
	inv := bf.edgeInvariantsOf(e, useIn)
	var meanM [ModeCount]float64
	for m := range meanM {
		meanM[m] = uv.Mean(DUEModeK(m))
	}
	for b := lo; b < hi; b++ {
		rb := b - lo
		if rb >= vb {
			continue
		}
		ub := 32*int(e.UseReg) + rb
		st := dataStencil(useIn, slot, ub, uv.Width, inv)
		for m := DUEModeK(0); m < ModeCount; m++ {
			var d float64
			switch st.kind {
			case stMean:
				d = st.f * meanM[m]
			case stMeanFrom:
				d = st.f * uv.meanFrom(m, st.idx)
			default:
				d = st.f * uv.at(m, st.idx)
			}
			apply(m, b, d)
		}
	}
}

// DUEModeEstimate is a whole-program static DUE-mode distribution over
// a site population: the weighted-mean per-mode DUE mass, in the same
// aggregation scheme as Estimate. The four mode fields sum to DUEMass
// (which equals Estimate.DUE for the same weights and filter), and
// Shares normalizes them into the distribution the injection ledgers
// are cross-validated against.
type DUEModeEstimate struct {
	Name  string `json:"name"`
	Sites int    `json:"sites"`

	// Weight is the total site weight behind the means — the combining
	// weight when multi-launch estimates are merged (faultinj).
	Weight float64 `json:"weight"`

	// DUEMass is the weighted-mean total DUE probability of the
	// population — the denominator of the mode shares.
	DUEMass float64 `json:"due_mass"`

	Hang           float64 `json:"hang"`
	IllegalAddress float64 `json:"illegal_address"`
	SyncError      float64 `json:"sync_error"`
	Unattributed   float64 `json:"unattributed"`
}

// Share returns one mode's fraction of the population's DUE mass (0
// when the population carries no DUE mass at all).
func (e *DUEModeEstimate) Share(m DUEModeK) float64 {
	if e.DUEMass <= 0 {
		return 0
	}
	switch m {
	case ModeHang:
		return e.Hang / e.DUEMass
	case ModeIllegalAddress:
		return e.IllegalAddress / e.DUEMass
	case ModeSyncError:
		return e.SyncError / e.DUEMass
	}
	return e.Unattributed / e.DUEMass
}

// Mass returns one mode's absolute weighted-mean DUE mass.
func (e *DUEModeEstimate) Mass(m DUEModeK) float64 {
	switch m {
	case ModeHang:
		return e.Hang
	case ModeIllegalAddress:
		return e.IllegalAddress
	case ModeSyncError:
		return e.SyncError
	}
	return e.Unattributed
}

// addMass accumulates w-weighted mode mass.
func (e *DUEModeEstimate) addMass(m DUEModeK, v float64) {
	switch m {
	case ModeHang:
		e.Hang += v
	case ModeIllegalAddress:
		e.IllegalAddress += v
	case ModeSyncError:
		e.SyncError += v
	default:
		e.Unattributed += v
	}
}

// DUEModeEstimate aggregates the mode vectors over the sites matching
// filter (nil: every GPR-writing opcode), weighted like Estimate.
func (r *Result) DUEModeEstimate(weights []float64, filter func(isa.Op) bool) *DUEModeEstimate {
	est := &DUEModeEstimate{Name: r.Prog.Name}
	var totalW float64
	for i := range r.Prog.Instrs {
		in := &r.Prog.Instrs[i]
		if filter == nil {
			if !in.Op.WritesGPR() {
				continue
			}
		} else if !filter(in.Op) {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		est.Sites++
		totalW += w
		v := &r.DUEModeVec[i]
		for m := DUEModeK(0); m < ModeCount; m++ {
			est.addMass(m, w*v.Mean(m))
		}
	}
	if totalW > 0 {
		est.Hang /= totalW
		est.IllegalAddress /= totalW
		est.SyncError /= totalW
		est.Unattributed /= totalW
	}
	est.Weight = totalW
	est.DUEMass = est.Hang + est.IllegalAddress + est.SyncError + est.Unattributed
	return est
}
