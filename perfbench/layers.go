package main

import (
	"fmt"
	"time"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// newRunner builds a runner (the entry's Builder plus the golden run)
// inside a kernels.NewRunner span.
func newRunner(tr *tracer, parent int, trace, name string, build kernels.Builder, dev *device.Device, opt asm.OptLevel) (*kernels.Runner, error) {
	var r *kernels.Runner
	err := tr.call(parent, trace, "kernels.NewRunner", func(int) error {
		var err error
		r, err = kernels.NewRunner(name, build, dev, opt)
		return err
	})
	return r, err
}

// runnerTally sums what a walk's runners retain and simulated in their
// golden runs, so the runners need not outlive their use.
type runnerTally struct {
	bytes   int
	laneOps uint64
}

func (t *runnerTally) add(r *kernels.Runner) {
	t.bytes += r.MemoryFootprint()
	for _, p := range r.GoldenProfiles() {
		t.laneOps += p.LaneOps
	}
}

// runnerMetrics derives the kernels, asm and golden-run sim metrics of
// a walk from its kernels.NewRunner and asm.Build spans and the tally
// of the runners it built.
func runnerMetrics(m metrics, st *spanStats, t runnerTally) {
	golden := st.durations("kernels.NewRunner")
	p50, _ := percentile(golden, 0.5)
	m.set("kernels.golden_ms_p50", "ms", p50*1e3)
	m.set("kernels.runner_builds", "count", float64(len(golden)))
	m.set("kernels.runner_mb", "MB", float64(t.bytes)/(1<<20))
	var goldenS float64
	for _, d := range golden {
		goldenS += d
	}
	m.set("sim.golden_lane_ops_per_s", "1/s", float64(t.laneOps)/goldenS)
	build, _ := percentile(st.durations("asm.Build"), 0.5)
	m.set("asm.build_ms_p50", "ms", build*1e3)
}

// replayTarget is a runner whose injectable classes the per-trial walk
// samples.
type replayTarget struct {
	r    *kernels.Runner
	tool faultinj.Tool
}

// Per-trial walk sizes: enough trials for a p99 with ten samples beyond
// it overall and a p90 per outcome, capped so a workload with rare
// outcomes still ends.
const (
	replayMinTrials     = 1000
	replayMinPerOutcome = 100
	replayMaxTrials     = 4000
	replayProbeTrials   = 300
)

var outcomes = []struct {
	o    kernels.Outcome
	name string
}{{kernels.Masked, "masked"}, {kernels.SDC, "sdc"}, {kernels.DUE, "due"}}

// replayWalk replays index-addressed trials round-robin over every
// (runner, class) sampler of the targets, one at a time, timing each
// Runner.RunTrialWithFault and attributing its exit path from the
// runner's ReplayStats deltas. The trial sequence is a function of the
// seed, so the counts repeat exactly.
func replayWalk(tr *tracer, seed uint64, targets []replayTarget, probe bool, out *outcome) metrics {
	type sampler struct {
		r *kernels.Runner
		s *faultinj.ClassSampler
	}
	var samplers []sampler
	for _, t := range targets {
		for _, c := range faultinj.AdaptiveClasses(t.r, t.tool) {
			s, _ := faultinj.NewClassSampler(t.r, t.tool, c)
			samplers = append(samplers, sampler{t.r, s})
		}
	}
	byOutcome := map[kernels.Outcome][]float64{}
	var all []float64
	var restores, rejoins uint64
	enough := func() bool {
		n := len(all)
		if probe {
			return n >= replayProbeTrials
		}
		if n >= replayMaxTrials {
			return true
		}
		if n < replayMinTrials {
			return false
		}
		for _, oc := range outcomes {
			if len(byOutcome[oc.o]) < replayMinPerOutcome {
				return false
			}
		}
		return true
	}
	for i := 0; i < replayMaxTrials && len(samplers) > 0 && !enough(); i++ {
		sp := samplers[i%len(samplers)]
		plan, launch := sp.s.Plan(seed, uint64(i/len(samplers)))
		rs0, rj0 := sp.r.ReplayStats()
		trace := fmt.Sprintf("replay/%s/%s/%s", sp.r.Dev.Name, sp.r.Name, sp.s.Class)
		id := tr.begin(0, trace, "sim.RunTrialWithFault")
		t0 := time.Now()
		rec, err := sp.r.RunTrialWithFault(plan, launch)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			out.problem("replay %s: %v", trace, err)
			continue
		}
		rs1, rj1 := sp.r.ReplayStats()
		restores += rs1 - rs0
		rejoins += rj1 - rj0
		us := float64(d.Nanoseconds()) / 1e3
		all = append(all, us)
		byOutcome[rec.Outcome] = append(byOutcome[rec.Outcome], us)
	}
	m := metrics{}
	if len(all) == 0 {
		out.problem("replay walk ran no trials")
		return m
	}
	p50, _ := percentile(all, 0.5)
	p99, _ := percentile(all, 0.99)
	m.set("sim.replay_us_p50", "us", p50)
	m.set("sim.replay_us_p99", "us", p99)
	for _, oc := range outcomes {
		xs := byOutcome[oc.o]
		if len(xs) == 0 {
			out.problem("replay walk saw no %s trial", oc.name)
			continue
		}
		o50, _ := percentile(xs, 0.5)
		o90, _ := percentile(xs, 0.9)
		m.set("sim.replay_us_p50."+oc.name, "us", o50)
		m.set("sim.replay_us_p90."+oc.name, "us", o90)
	}
	m.set("sim.restore_ratio", "ratio", float64(restores)/float64(len(all)))
	m.set("sim.rejoin_ratio", "ratio", float64(rejoins)/float64(len(all)))
	fmt.Fprintf(stderr, "replay walk: %d trials (%d masked, %d sdc, %d due)\n", len(all),
		len(byOutcome[kernels.Masked]), len(byOutcome[kernels.SDC]), len(byOutcome[kernels.DUE]))
	return m
}

// perFaultIters is how many faults each BENCH_v0 point replays.
const perFaultIters = 200

// perFault times the four BenchmarkSimPerFault* points of the root
// bench_test.go on this host, with its trigger definitions and RNG
// seeds: K40c runners at O2, value-bit faults either cycling through
// the first fifty filtered lane-ops or drawn uniformly over the golden
// non-control lane-op stream.
func perFault(tr *tracer, m metrics) error {
	dev := device.K40c()
	for _, w := range []struct {
		name  string
		build kernels.Builder
	}{
		{"FMXM", kernels.MxMBuilder(isa.F32)},
		{"FYOLOV3", kernels.YOLOBuilder(true, isa.F32)},
	} {
		r, err := newRunner(tr, 0, "perfault/"+w.name, w.name, w.build, dev, asm.O2)
		if err != nil {
			return err
		}
		nl := len(r.GoldenProfiles())
		var d time.Duration
		err = tr.call(0, "perfault/"+w.name, "sim.perfault", func(int) error {
			t0 := time.Now()
			for i := 0; i < perFaultIters; i++ {
				plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: uint64(i % 50), Bit: i % 32}
				if _, err := r.RunWithFault(plan, i%nl); err != nil {
					return err
				}
			}
			d = time.Since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		m.set("sim.perfault_us."+w.name, "us", float64(d.Nanoseconds())/1e3/perFaultIters)

		ops := r.LaunchLaneOps(func(op isa.Op) bool { return !op.IsControl() })
		var total uint64
		for _, n := range ops {
			total += n
		}
		rng := stats.NewRNG(0xb7e151628aed2a6a, 0x9e3779b97f4a7c15)
		err = tr.call(0, "perfault/"+w.name+"-uniform", "sim.perfault", func(int) error {
			t0 := time.Now()
			for i := 0; i < perFaultIters; i++ {
				t := uint64(rng.Int64N(int64(total)))
				launch := 0
				for launch < len(ops)-1 && t >= ops[launch] {
					t -= ops[launch]
					launch++
				}
				plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: t, Bit: rng.IntN(32)}
				if _, err := r.RunWithFault(plan, launch); err != nil {
					return err
				}
			}
			d = time.Since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		m.set("sim.perfault_us."+w.name+"-uniform", "us", float64(d.Nanoseconds())/1e3/perFaultIters)
	}
	return nil
}
