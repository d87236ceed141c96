package core

import (
	"errors"
	"fmt"
	"sort"

	"gpurel/internal/asm"
	"gpurel/internal/faultinj"
	"gpurel/internal/suite"
)

// Agreement verdicts: the study already holds both sides of every
// static-vs-injection comparison (phases 3, 3b and 3c), so the gates
// are pure functions over it rather than campaigns of their own.

// minTwoLevelSpeedup is the two-level estimator's cost promise: it
// must spend at least this many times fewer simulations than the
// exhaustive NVBitFI campaign it is checked against.
const minTwoLevelSpeedup = 5

// crossVal pairs the code's NVBitFI campaign with its persisted static
// estimates; nil when either side is missing.
func (ds *DeviceStudy) crossVal(name string) *faultinj.CrossValidation {
	dyn, st := ds.AVF[faultinj.NVBitFI][name], ds.StaticAVF[name]
	if dyn == nil || st == nil {
		return nil
	}
	return &faultinj.CrossValidation{
		Name: name, Tool: faultinj.NVBitFI, Device: ds.Dev.Name,
		Static: st, Scalar: ds.ScalarAVF[name], Dynamic: dyn,
	}
}

// CrossVals pairs each NVBitFI campaign stored in the study with its
// persisted static estimates, in sorted code order so the rendered
// artifacts are byte-stable.
func (ds *DeviceStudy) CrossVals() []*faultinj.CrossValidation {
	var names []string
	for name := range ds.AVF[faultinj.NVBitFI] {
		if ds.StaticAVF[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cvs := make([]*faultinj.CrossValidation, 0, len(names))
	for _, name := range names {
		cvs = append(cvs, ds.crossVal(name))
	}
	return cvs
}

// agreementKernels lists the CrossValKernels workloads NVBitFI can
// inject on the study's device, in faultinj.CrossValKernels order.
func (ds *DeviceStudy) agreementKernels() []string {
	entries := suite.ForDevice(ds.Dev)
	var names []string
	for _, name := range faultinj.CrossValKernels {
		if e, err := suite.Find(entries, name); err == nil && injectable(ds.Dev, faultinj.NVBitFI, e) {
			names = append(names, name)
		}
	}
	return names
}

// CheckAgreement runs the four static-vs-injection gates over the
// study's own campaigns and estimates, for every agreement kernel:
//
//   - crossval: the bit-resolved static unmasked AVF within
//     faultinj.CrossValTolerance of the NVBitFI campaign's;
//   - duemode: the static DUE-mode shares within
//     faultinj.DUEModeTolerance (L-infinity) of the campaign's typed-DUE
//     ledger, once the campaign has faultinj.DUEModeMinDUEs DUEs;
//   - twolevel: the two-level SDC AVF within faultinj.TwoLevelTolerance
//     of the campaign's at minTwoLevelSpeedup or more fewer trials;
//   - opt: a full asm.MatrixConfigs matrix whose static ordering has no
//     discordant pair against injection at faultinj.OptOrderingEps.
//
// A missing campaign, estimate or matrix cell fails its gate. Every
// failure is joined into the returned error, each naming the gate, the
// kernel and the device; nil means all gates pass.
func (ds *DeviceStudy) CheckAgreement() error {
	var errs []error
	fail := func(gate, name, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s on %s: %s",
			gate, name, ds.Dev.Name, fmt.Sprintf(format, args...)))
	}
	names := ds.agreementKernels()
	if len(names) == 0 {
		return fmt.Errorf("agreement: no cross-validation workload on %s", ds.Dev.Name)
	}
	configs := asm.MatrixConfigs()
	for _, name := range names {
		dyn := ds.AVF[faultinj.NVBitFI][name]

		if cv := ds.crossVal(name); cv == nil {
			fail("crossval", name, "missing NVBitFI campaign or static AVF estimate")
		} else if !cv.Agrees() {
			fail("crossval", name, "static unmasked AVF %.3f vs injected %.3f: delta %+.3f outside ±%.2f",
				cv.StaticUnmasked(), cv.DynamicUnmasked(), cv.Delta(), faultinj.CrossValTolerance)
		}

		if st := ds.StaticDUEModes[name]; dyn == nil || st == nil {
			fail("duemode", name, "missing NVBitFI campaign or static DUE-mode estimate")
		} else if cv := faultinj.PairDUEModes(name, faultinj.NVBitFI, ds.Dev.Name, st, dyn); !cv.Agrees() {
			fail("duemode", name, "L-inf delta %.3f over %d typed DUEs outside %.2f",
				cv.Delta(), cv.DynamicDUEs, faultinj.DUEModeTolerance)
		}

		if tl := ds.TwoLevel[name]; dyn == nil || tl == nil {
			fail("twolevel", name, "missing NVBitFI campaign or two-level estimate")
		} else {
			if !tl.Agrees(dyn) {
				fail("twolevel", name, "SDC AVF %.3f vs exhaustive %.3f: delta %+.3f outside ±%.2f",
					tl.SDCAVF, dyn.SDCAVF.P, tl.Delta(dyn), faultinj.TwoLevelTolerance)
			}
			if s := tl.Speedup(dyn); s < minTwoLevelSpeedup {
				fail("twolevel", name, "speedup %.1fx below %dx (%d vs %d trials)",
					s, minTwoLevelSpeedup, tl.Trials, dyn.Injected)
			}
		}

		m := ds.OptMatrix[name]
		if err := checkMatrix(m, configs); err != nil {
			fail("opt", name, "%v", err)
		} else if _, d := m.OrderingAgreement(faultinj.OptOrderingEps); d > 0 {
			fail("opt", name, "static ordering contradicts injection (%d discordant pairs at eps %.2f)",
				d, faultinj.OptOrderingEps)
		}
	}
	return errors.Join(errs...)
}

// checkMatrix reports whether m holds one complete cell per matrix
// configuration, in order, so its ordering verdict covers every pair.
func checkMatrix(m *faultinj.OptMatrix, configs []asm.OptLevel) error {
	if m == nil {
		return errors.New("missing optimization matrix")
	}
	if len(m.Cells) != len(configs) {
		return fmt.Errorf("%d matrix cells, want %d", len(m.Cells), len(configs))
	}
	for i, c := range m.Cells {
		if c == nil || c.Opt != configs[i] || c.Static == nil || c.Dynamic == nil {
			return fmt.Errorf("matrix cell %d is not a complete %s cell", i, configs[i])
		}
	}
	return nil
}
