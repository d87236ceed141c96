package analysis_test

import (
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/suite"
)

// TestStaleSweepMatchesFullSweep checks the stale-definition shortcut of
// the backward fixpoints against full sweeps on every program the study
// analyzes: each suite launch on both devices at O1 and O2, each
// optimization-matrix configuration of the cross-validation kernels,
// and each micro-benchmark, without and with the launch geometry. Every
// ACEVec and DUEModeVec entry must match bit for bit. -short keeps only
// the cross-validation kernels at O2 with their launch geometry.
func TestStaleSweepMatchesFullSweep(t *testing.T) {
	matrix := map[string]bool{}
	for _, k := range faultinj.CrossValKernels {
		matrix[k] = true
	}
	for _, dev := range []*device.Device{device.K40c(), device.TitanV()} {
		t.Run(dev.Name, func(t *testing.T) {
			t.Parallel()
			analyses := 0
			check := func(what string, inst *kernels.Instance) {
				// A zero Bounds seeds the same facts as nil, so it keys
				// the unbounded analysis.
				type key struct {
					prog   *isa.Program
					bounds analysis.Bounds
				}
				seen := map[key]bool{}
				for _, l := range inst.Launches {
					bounds := &analysis.Bounds{GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads}
					for _, b := range []*analysis.Bounds{nil, bounds} {
						if b == nil && testing.Short() {
							continue
						}
						k := key{prog: l.Prog}
						if b != nil {
							k.bounds = *b
						}
						if seen[k] {
							continue
						}
						seen[k] = true
						analyses++
						r := analysis.AnalyzeLaunch(l.Prog, b)
						refVec, refMV := analysis.ReferenceVectors(l.Prog, b)
						if d := analysis.VectorBitsDiff(r.ACEVec, refVec, r.DUEModeVec, refMV); d != "" {
							t.Errorf("%s %s bounds %v: %s", what, l.Prog.Name, b, d)
						}
					}
				}
			}
			for _, e := range suite.ForDevice(dev) {
				opts := []asm.OptLevel{asm.O1, asm.O2}
				switch {
				case testing.Short() && !matrix[e.Name]:
					continue
				case testing.Short():
					opts = opts[1:]
				case matrix[e.Name]:
					opts = asm.MatrixConfigs()
				}
				for _, opt := range opts {
					inst, err := e.Build(dev, opt)
					if err != nil {
						t.Fatalf("%s %s: %v", e.Name, opt, err)
					}
					check(e.Name+" "+opt.String(), inst)
				}
			}
			if testing.Short() {
				t.Logf("-short: %d analyses (cross-validation kernels at O2, launch bounds) bit-identical to full sweeps", analyses)
				return
			}
			for _, m := range microbench.Catalog(dev) {
				for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
					inst, err := m.Build(dev, opt)
					if err != nil {
						t.Fatalf("micro %s %s: %v", m.Name, opt, err)
					}
					check("micro "+m.Name+" "+opt.String(), inst)
				}
			}
			t.Logf("%d analyses bit-identical to full sweeps", analyses)
		})
	}
}
