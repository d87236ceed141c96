package analysis

// staleSet schedules the backward fixpoints (propagateVec,
// propagateModes) so that a sweep re-evaluates only the definitions
// whose inputs moved. A definition's backward transfer reads nothing
// but its uses' current vectors and facts fixed before the sweep
// starts, so recomputing it when no use has changed since its last
// evaluation writes back the very same bits: skipping it leaves every
// vector, the per-sweep eps test, and hence the sweep count exactly as
// the full sweep would have them.
//
// A change is any difference in the stored float64 bits: not the eps
// test, which lets sub-eps moves through, and not ==, which equates -0
// and +0. One clock ticks at every evaluation and every change. A
// definition is stale when it has never been evaluated, or when some
// use changed at a tick later than its last evaluation. A change is
// stamped on its own tick after the evaluation that produced it, which
// is what keeps a self-edge (a loop-carried IADD R1, R1, ...) stale
// after it moves.
type staleSet struct {
	clock     uint64
	evalAt    []uint64 // tick of the last evaluation; 0 = never
	changedAt []uint64 // tick of the last change; 0 = never
}

func newStaleSet(n int) *staleSet {
	return &staleSet{evalAt: make([]uint64, n), changedAt: make([]uint64, n)}
}

// stale reports whether definition i, whose uses are out, must be
// re-evaluated.
func (s *staleSet) stale(i int, out []UseEdge) bool {
	at := s.evalAt[i]
	if at == 0 {
		return true
	}
	for _, e := range out {
		if s.changedAt[e.Use] > at {
			return true
		}
	}
	return false
}

// evaluated stamps an evaluation of definition i.
func (s *staleSet) evaluated(i int) {
	s.clock++
	s.evalAt[i] = s.clock
}

// moved stamps a change of definition i's stored bits; call it after
// evaluated.
func (s *staleSet) moved(i int) {
	s.clock++
	s.changedAt[i] = s.clock
}

// backwardFixpoint runs one backward pass to its fixpoint: reverse
// Gauss-Seidel sweeps over the definitions, at most 400, until a sweep
// moves no value by more than the pass's eps. step re-evaluates one
// definition and reports (changed beyond eps, any stored bit moved);
// only stale definitions are stepped.
func (bf *bitflow) backwardFixpoint(step func(i int) (changed, moved bool)) {
	n := len(bf.p.Instrs)
	st := newStaleSet(n)
	for iter := 0; iter < 400; iter++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			if !st.stale(i, bf.du.Out[i]) {
				continue
			}
			st.evaluated(i)
			c, moved := step(i)
			if moved {
				st.moved(i)
			}
			changed = changed || c
		}
		if !changed {
			break
		}
	}
}
