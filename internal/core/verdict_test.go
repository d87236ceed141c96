package core

import (
	"strings"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/faultinj"
)

// committedStudy loads one device's study from the committed out/
// directory, the artifacts the drift gate proves equal to a fresh
// canonical regeneration.
func committedStudy(t *testing.T, dev string) *DeviceStudy {
	t.Helper()
	ds, err := LoadDeviceStudy("../../out/study_" + dev + ".json")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCommittedStudyAgreement is the static-vs-injection agreement gate:
// on both committed studies, every cross-validation workload passes the
// AVF, DUE-mode, two-level and optimization-matrix checks.
func TestCommittedStudyAgreement(t *testing.T) {
	for _, dev := range []string{"kepler", "volta"} {
		ds := committedStudy(t, dev)
		if err := ds.CheckAgreement(); err != nil {
			t.Errorf("%s:\n%v", dev, err)
		}
		if n, want := len(ds.agreementKernels()), map[string]int{"kepler": 9, "volta": 3}[dev]; n != want {
			t.Errorf("%s: %d agreement kernels, want %d", dev, n, want)
		}
	}
}

// TestCheckAgreementFailures breaks one input per gate in the committed
// Kepler study and requires CheckAgreement to name each failure, so no
// gate can pass vacuously on missing or contradicting data.
func TestCheckAgreementFailures(t *testing.T) {
	ds := committedStudy(t, "kepler")

	// crossval: push FMXM's static unmasked AVF past the tolerance.
	st := *ds.StaticAVF["FMXM"]
	dyn := ds.AVF[faultinj.NVBitFI]["FMXM"].UnmaskedAVF()
	st.SDC += dyn + faultinj.CrossValTolerance + 0.05 - st.Unmasked()
	ds.StaticAVF["FMXM"] = &st

	// twolevel: lose NW's estimate, and spend as many trials on BFS's
	// as the exhaustive campaign did.
	delete(ds.TwoLevel, "NW")
	tl := *ds.TwoLevel["BFS"]
	tl.Trials = ds.AVF[faultinj.NVBitFI]["BFS"].Injected
	ds.TwoLevel["BFS"] = &tl

	// opt: drop the last cell of CCL's matrix.
	m := *ds.OptMatrix["CCL"]
	m.Cells = m.Cells[:len(m.Cells)-1]
	ds.OptMatrix["CCL"] = &m

	// duemode: swap the static hang and illegal-address shares on a
	// measurable kernel whose shares are far enough apart to matter.
	swapped := ""
	for _, name := range ds.agreementKernels() {
		e, dyn := ds.StaticDUEModes[name], ds.AVF[faultinj.NVBitFI][name]
		if dyn.DUEModes.DUEs() < faultinj.DUEModeMinDUEs ||
			absDiff(e.Share(analysis.ModeHang), e.Share(analysis.ModeIllegalAddress)) <= 2*faultinj.DUEModeTolerance {
			continue
		}
		c := *e
		c.Hang, c.IllegalAddress = e.IllegalAddress, e.Hang
		ds.StaticDUEModes[name] = &c
		swapped = name
		break
	}
	if swapped == "" {
		t.Fatal("no measurable Kepler kernel to swap DUE-mode shares on")
	}

	err := ds.CheckAgreement()
	if err == nil {
		t.Fatal("CheckAgreement passed a broken study")
	}
	for _, want := range []string{
		"crossval: FMXM on Tesla K40c",
		"twolevel: NW on Tesla K40c: missing",
		"twolevel: BFS on Tesla K40c: speedup 1.0x below 5x",
		"opt: CCL on Tesla K40c: 6 matrix cells, want 7",
		"duemode: " + swapped + " on Tesla K40c",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verdict does not name %q:\n%v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 5 {
		t.Errorf("%d failures, want exactly the 5 injected:\n%v", n, err)
	}

	// A study with no campaigns, estimates or matrices fails every gate
	// on every kernel.
	empty := &DeviceStudy{Dev: ds.Dev}
	err = empty.CheckAgreement()
	if err == nil {
		t.Fatal("CheckAgreement passed an empty study")
	}
	if n, want := strings.Count(err.Error(), "\n")+1, 4*len(ds.agreementKernels()); n != want {
		t.Errorf("empty study: %d failures, want %d:\n%v", n, want, err)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
