package analysis_test

import (
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/suite"
)

// analyzeSink keeps the benchmarked Analyze calls from being optimized
// away.
var analyzeSink *analysis.Result

// BenchmarkAnalyzeSuite times one Analyze of every distinct suite
// program on both devices at O1 and O2 — the lint's per-program pass
// and the bulk of the static estimators' cost. Building the programs
// is outside the timer.
func BenchmarkAnalyzeSuite(b *testing.B) {
	var progs []*isa.Program
	for _, dev := range []*device.Device{device.V100(), device.K40c()} {
		for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
			for _, e := range suite.ForDevice(dev) {
				inst, err := e.Build(dev, opt)
				if err != nil {
					b.Fatalf("%s/%s %s: %v", dev.Name, e.Name, opt, err)
				}
				seen := map[string]bool{}
				for _, l := range inst.Launches {
					if !seen[l.Prog.Name] {
						seen[l.Prog.Name] = true
						progs = append(progs, l.Prog)
					}
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			analyzeSink = analysis.Analyze(p)
		}
	}
	b.ReportMetric(float64(len(progs)), "programs")
}
