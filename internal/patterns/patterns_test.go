package patterns

import (
	"errors"
	"math"
	"testing"

	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// geoF32 is a 4x4 FP32 output grid at a non-zero base.
func geoF32() *kernels.OutputRegion {
	return &kernels.OutputRegion{Base: 0x1000, Rows: 4, Cols: 4, DType: isa.F32}
}

// f32Word builds one corrupt FP32 word at (row, col).
func f32Word(geo *kernels.OutputRegion, row, col int, golden, observed float32) kernels.CorruptWord {
	return kernels.CorruptWord{
		Addr:     geo.Base + uint32((row*geo.Cols+col)*4),
		Golden:   math.Float32bits(golden),
		Observed: math.Float32bits(observed),
	}
}

func sdc(diff ...kernels.CorruptWord) kernels.TrialRecord {
	return kernels.TrialRecord{Outcome: kernels.SDC, Diff: diff, CorruptWords: len(diff)}
}

func classify(t *testing.T, rec kernels.TrialRecord, geo *kernels.OutputRegion) Class {
	t.Helper()
	cls, err := Classify(rec, geo)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return cls
}

// TestSpatialClasses builds one hand-made diff per spatial class and
// checks the precedence order, including the row/column/block ties.
func TestSpatialClasses(t *testing.T) {
	geo := geoF32()
	cases := []struct {
		name string
		at   [][2]int
		want Spatial
	}{
		{"single element", [][2]int{{1, 2}}, Single},
		{"two in one row", [][2]int{{1, 0}, {1, 3}}, SameRow},
		{"full row (1xN box is a row, not a block)",
			[][2]int{{1, 0}, {1, 1}, {1, 2}, {1, 3}}, SameRow},
		{"two in one column", [][2]int{{0, 2}, {3, 2}}, SameCol},
		{"full column (Nx1 box is a column, not a block)",
			[][2]int{{0, 1}, {1, 1}, {2, 1}, {3, 1}}, SameCol},
		{"2x2 aligned block", [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}, Block},
		{"2x3 aligned block",
			[][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}}, Block},
		{"diagonal pair (partially covered box)", [][2]int{{0, 0}, {1, 1}}, Scattered},
		{"three scattered", [][2]int{{0, 0}, {1, 1}, {3, 3}}, Scattered},
		{"block minus one corner", [][2]int{{1, 1}, {1, 2}, {2, 1}}, Scattered},
	}
	for _, tc := range cases {
		var diff []kernels.CorruptWord
		for _, rc := range tc.at {
			diff = append(diff, f32Word(geo, rc[0], rc[1], 1.0, 8.0))
		}
		cls := classify(t, sdc(diff...), geo)
		if cls.Spatial != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, cls.Spatial, tc.want)
		}
	}
}

// TestMagnitudeBands checks the critical/tolerable split: the relative
// threshold, the NaN/Inf override, and the strict-inequality boundary.
func TestMagnitudeBands(t *testing.T) {
	geo := geoF32()
	cases := []struct {
		name             string
		golden, observed float32
		want             Magnitude
	}{
		{"small deviation", 2.0, 2.1, Tolerable}, // 5% < 10%
		{"large deviation", 2.0, 2.5, Critical},  // 25% > 10%
		{"NaN is always critical", 2.0, float32(math.NaN()), Critical},
		{"+Inf is always critical", 2.0, float32(math.Inf(1)), Critical},
		{"near-zero golden uses the epsilon floor", 0, 1e-8, Tolerable},
		{"near-zero golden, visible corruption", 0, 1.0, Critical},
	}
	for _, tc := range cases {
		cls := classify(t, sdc(f32Word(geo, 0, 0, tc.golden, tc.observed)), geo)
		if cls.Magnitude != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, cls.Magnitude, tc.want)
		}
	}

	// I32 boundary: exactly CriticalRel*|golden| is tolerable (strict >),
	// one past it is critical.
	igeo := &kernels.OutputRegion{Base: 0x2000, Rows: 2, Cols: 2, DType: isa.I32}
	iword := func(golden, observed int32) kernels.CorruptWord {
		return kernels.CorruptWord{Addr: igeo.Base, Golden: uint32(golden), Observed: uint32(observed)}
	}
	if cls := classify(t, sdc(iword(100, 110)), igeo); cls.Magnitude != Tolerable {
		t.Errorf("I32 deviation exactly at the band edge: got %s, want tolerable", cls.Magnitude)
	}
	if cls := classify(t, sdc(iword(100, 111)), igeo); cls.Magnitude != Critical {
		t.Errorf("I32 deviation past the band edge: got %s, want critical", cls.Magnitude)
	}

	// One critical element among tolerable ones marks the trial critical.
	cls := classify(t, sdc(
		f32Word(geo, 0, 0, 2.0, 2.01),
		f32Word(geo, 0, 3, 2.0, 9.0)), geo)
	if cls.Magnitude != Critical {
		t.Errorf("mixed magnitudes: got %s, want critical", cls.Magnitude)
	}
}

// TestF64Elements checks multi-word element handling: the two words of
// one F64 element group into a single corrupt element, and the value
// decodes from both words.
func TestF64Elements(t *testing.T) {
	geo := &kernels.OutputRegion{Base: 0x4000, Rows: 2, Cols: 2, DType: isa.F64}
	words := func(row, col int, golden, observed float64) []kernels.CorruptWord {
		addr := geo.Base + uint32((row*geo.Cols+col)*8)
		g, o := math.Float64bits(golden), math.Float64bits(observed)
		return []kernels.CorruptWord{
			{Addr: addr, Golden: uint32(g), Observed: uint32(o)},
			{Addr: addr + 4, Golden: uint32(g >> 32), Observed: uint32(o >> 32)},
		}
	}
	cls := classify(t, sdc(words(1, 0, 3.0, 3.05)...), geo)
	if cls.Spatial != Single || cls.Magnitude != Tolerable {
		t.Errorf("F64 single tolerable element: got %s", cls)
	}
	cls = classify(t, sdc(words(1, 0, 3.0, math.NaN())...), geo)
	if cls.Spatial != Single || cls.Magnitude != Critical {
		t.Errorf("F64 NaN element: got %s", cls)
	}
}

// TestClassifyErrors pins the three rejection paths.
func TestClassifyErrors(t *testing.T) {
	geo := geoF32()
	if _, err := Classify(sdc(f32Word(geo, 0, 0, 1, 2)), nil); !errors.Is(err, ErrNoGeometry) {
		t.Errorf("nil geometry: got %v, want ErrNoGeometry", err)
	}
	if _, err := Classify(kernels.TrialRecord{Outcome: kernels.SDC}, geo); !errors.Is(err, ErrEmptyDiff) {
		t.Errorf("empty diff: got %v, want ErrEmptyDiff", err)
	}
	outside := kernels.CorruptWord{Addr: geo.Base + uint32(geo.WordCount()*4), Golden: 1, Observed: 2}
	if _, err := Classify(sdc(outside), geo); !errors.Is(err, ErrOutsideOutput) {
		t.Errorf("corruption past the region: got %v, want ErrOutsideOutput", err)
	}
	below := kernels.CorruptWord{Addr: geo.Base - 4, Golden: 1, Observed: 2}
	if _, err := Classify(sdc(below), geo); !errors.Is(err, ErrOutsideOutput) {
		t.Errorf("corruption below the region: got %v, want ErrOutsideOutput", err)
	}
}

// TestObserveAndLedger covers the aggregation layer: non-SDC outcomes
// stay unclassified and uncounted, unclassifiable SDCs land in the
// Unclassified bucket, and Mix normalizes to fractions.
func TestObserveAndLedger(t *testing.T) {
	geo := geoF32()
	var l Ledger

	l.Count(Observe(kernels.TrialRecord{Outcome: kernels.Masked}, geo))
	l.Count(Observe(kernels.TrialRecord{Outcome: kernels.DUE}, geo))
	if l.SDCs() != 0 {
		t.Fatalf("non-SDC outcomes counted: %+v", l)
	}

	l.Count(Observe(kernels.TrialRecord{Outcome: kernels.SDC}, geo)) // no diff
	l.Count(Observe(sdc(f32Word(geo, 0, 0, 1, 9)), nil))             // no geometry
	if l.Unclassified != 2 {
		t.Fatalf("unclassifiable SDCs: got %d, want 2", l.Unclassified)
	}

	l.Count(Observe(sdc(f32Word(geo, 0, 0, 2.0, 2.01)), geo))
	l.Count(Observe(sdc(f32Word(geo, 1, 0, 2.0, 9), f32Word(geo, 1, 2, 2.0, 9)), geo))
	if l.Single != 1 || l.SameRow != 1 || l.Tolerable != 1 || l.Critical != 1 {
		t.Fatalf("classified counts wrong: %+v", l)
	}
	if l.SDCs() != 4 {
		t.Fatalf("SDCs() = %d, want 4", l.SDCs())
	}

	mix := l.Mix()
	spatial := mix.Single + mix.SameRow + mix.SameCol + mix.Block + mix.Scattered + mix.Unclassified
	if math.Abs(spatial-1) > 1e-12 {
		t.Fatalf("spatial mix sums to %f, want 1", spatial)
	}
	if (Ledger{}).Mix() != (Mix{}) {
		t.Fatalf("empty ledger must give the zero mix")
	}
}
