package kernels

import (
	"fmt"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/par"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// runWithFaultFull is the pre-checkpointing reference engine: rebuild
// the workload from scratch and re-simulate every launch, with the
// fault plan applied to faultLaunch. The checkpointed RunWithFault must
// classify identically for every plan.
func runWithFaultFull(t *testing.T, r *Runner, plan *sim.FaultPlan, faultLaunch int) Outcome {
	t.Helper()
	inst, err := r.Build(r.Dev, r.Opt)
	if err != nil {
		t.Fatalf("full re-sim build: %v", err)
	}
	for i, l := range inst.Launches {
		cfg := sim.Config{
			Device: r.Dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			MaxCycles: r.goldenCycles[i]*10 + 20_000,
		}
		if i == faultLaunch {
			cfg.Fault = plan
		}
		res, err := sim.Run(cfg, inst.Global)
		if err != nil {
			t.Fatalf("full re-sim launch %d: %v", i, err)
		}
		if res.Outcome == sim.OutcomeDUE {
			return DUE
		}
	}
	if !inst.Check(inst.Global) {
		return SDC
	}
	return Masked
}

// clonePlan copies the schedulable part of a fault plan (the engine
// mutates Fired/Landed, so the two engines under comparison each need a
// fresh one).
func clonePlan(p *sim.FaultPlan) *sim.FaultPlan {
	c := *p
	c.Fired = false
	c.Landed = false
	return &c
}

// TestCheckpointedRunMatchesFullResimulation is the golden-equivalence
// gate of the checkpointed engine: over a spread of fault kinds, launch
// indices, trigger points, and bits, snapshot-restore plus early masked
// cutoff must classify exactly like rebuilding and re-simulating the
// whole program. Covers one single-launch kernel and two multi-launch
// kernels so both the skip-prefix and cutoff-suffix paths are exercised.
func TestCheckpointedRunMatchesFullResimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is heavy")
	}
	dev := device.K40c()
	cases := []struct {
		name  string
		build Builder
	}{
		{"FMXM", MxMBuilder(isa.F32)},         // single launch
		{"FHOTSPOT", HotspotBuilder(isa.F32)}, // multi-launch, iterative stencil
		{"MERGESORT", MergesortBuilder()},     // multi-launch, pass hierarchy
	}
	const perKernel = 40
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(c.name, c.build, dev, asm.O2)
			if err != nil {
				t.Fatal(err)
			}
			if c.name != "FMXM" && len(r.Instance().Launches) < 2 {
				t.Fatalf("%s is not multi-launch", c.name)
			}
			rng := stats.NewRNG(0xc4ec, 0x9001)
			launches := r.GoldenProfiles()
			gprFilter := func(op isa.Op) bool { return op.WritesGPR() }
			for i := 0; i < perKernel; i++ {
				launch := rng.IntN(len(launches))
				ops := launches[launch].LaneOps
				kind := sim.FaultKind(rng.IntN(8))
				plan := &sim.FaultPlan{
					Kind:         kind,
					TriggerIndex: uint64(rng.Int64N(int64(ops + 1))),
					Bit:          rng.IntN(64),
					Block:        rng.IntN(4),
					Thread:       rng.IntN(64),
					Reg:          rng.IntN(8),
					BitIdx:       rng.Uint64() % 4096,
				}
				if kind == sim.FaultValueBit && rng.Bool(0.5) {
					plan.Filter = gprFilter
				}
				fast, err := r.RunWithFault(clonePlan(plan), launch)
				if err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				full := runWithFaultFull(t, r, clonePlan(plan), launch)
				if fast != full {
					t.Fatalf("case %d: kind %v launch %d trigger %d bit %d: checkpointed %v, full re-sim %v",
						i, plan.Kind, launch, plan.TriggerIndex, plan.Bit, fast, full)
				}
			}
		})
	}
}

// TestRunnerReusableAfterFaults locks in that faulted replays never
// leak corruption into the runner's cached state: a campaign of faults
// followed by a clean replay still classifies the clean replay as
// Masked, and the cached instance still passes its own comparator.
func TestRunnerReusableAfterFaults(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("NW", NWBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		plan := &sim.FaultPlan{
			Kind:         sim.FaultValueBit,
			TriggerIndex: uint64(i * 37),
			Bit:          i % 32,
		}
		if _, err := r.RunWithFault(plan, i%len(r.Instance().Launches)); err != nil {
			t.Fatal(err)
		}
	}
	// A never-firing plan replays the golden execution.
	out, err := r.RunWithFault(&sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: 1 << 60}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != Masked {
		t.Fatalf("clean replay after faults gave %v, want Masked", out)
	}
	if !r.Instance().Check(r.Instance().Global) {
		t.Fatal("faulted replays corrupted the cached golden memory")
	}
}

// TestSubLaunchReplayAcrossFaultKinds is the golden-equivalence gate of
// the sub-launch machinery specifically: on a single-launch kernel the
// launch-boundary snapshots alone never help, so every saving — mid-
// launch restores before the trigger and rejoin cutoffs after the fault
// washes out — comes from the recorded LaunchImages. Every fault kind
// gets triggers spread across the whole launch, and the checkpointed
// verdict must match full re-simulation for each. The test also asserts
// the machinery actually engaged (images recorded, restores used);
// equivalence proven only on replays that bypassed the images would
// prove nothing.
func TestSubLaunchReplayAcrossFaultKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is heavy")
	}
	dev := device.K40c()
	r, err := NewRunner("FMXM", MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instance().Launches) != 1 {
		t.Fatalf("FMXM should be single-launch, has %d launches", len(r.Instance().Launches))
	}
	if len(r.images[0]) < 2 {
		t.Fatalf("expected sub-launch images on FMXM, got %d", len(r.images[0]))
	}
	ops := r.GoldenProfiles()[0].LaneOps
	rng := stats.NewRNG(0x5b1a, 0x7002)
	gprFilter := func(op isa.Op) bool { return op.WritesGPR() }
	for kind := sim.FaultKind(0); kind < 8; kind++ {
		for i := 0; i < 5; i++ {
			// Five triggers per kind, spread from the launch's first
			// fifth to its end so plans land on both sides of the
			// recorded images.
			lo := ops * uint64(i) / 5
			plan := &sim.FaultPlan{
				Kind:         kind,
				TriggerIndex: lo + rng.Uint64()%(ops/5+1),
				Bit:          rng.IntN(64),
				Block:        rng.IntN(4),
				Thread:       rng.IntN(64),
				Reg:          rng.IntN(8),
				BitIdx:       rng.Uint64() % 4096,
			}
			if kind == sim.FaultValueBit && rng.Bool(0.5) {
				plan.Filter = gprFilter
			}
			fast, err := r.RunWithFault(clonePlan(plan), 0)
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			full := runWithFaultFull(t, r, clonePlan(plan), 0)
			if fast != full {
				t.Fatalf("kind %v trigger %d bit %d: checkpointed %v, full re-sim %v",
					plan.Kind, plan.TriggerIndex, plan.Bit, fast, full)
			}
		}
	}
	restores, rejoins := r.ReplayStats()
	t.Logf("sub-launch replay: %d restores, %d rejoins over 40 faults", restores, rejoins)
	if restores == 0 {
		t.Error("no replay started from a sub-launch image; the spread should have hit late triggers")
	}
}

// TestReplayDeterminismAcrossWorkers locks in that a Runner shared by
// concurrent campaign workers classifies exactly like a sequential one:
// the same plan set run one-at-a-time and under 8 goroutines must give
// identical per-plan outcomes. This is the property campaigns rely on
// when they fan RunWithFault out over a worker pool — the engine's
// pooled memories, image restores, and rejoin compares must not couple
// replays to each other.
func TestReplayDeterminismAcrossWorkers(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("FMXM", MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	ops := r.GoldenProfiles()[0].LaneOps
	rng := stats.NewRNG(0xd00d, 0x7003)
	const n = 64
	plans := make([]*sim.FaultPlan, n)
	for i := range plans {
		plans[i] = &sim.FaultPlan{
			Kind:         sim.FaultKind(rng.IntN(8)),
			TriggerIndex: rng.Uint64() % (ops + 1),
			Bit:          rng.IntN(64),
			Block:        rng.IntN(4),
			Thread:       rng.IntN(64),
			Reg:          rng.IntN(8),
			BitIdx:       rng.Uint64() % 4096,
		}
	}
	seq := make([]Outcome, n)
	for i, p := range plans {
		out, err := r.RunWithFault(clonePlan(p), 0)
		if err != nil {
			t.Fatalf("sequential plan %d: %v", i, err)
		}
		seq[i] = out
	}
	pooled := make([]Outcome, n)
	err = par.ForEach(n, 8, func(i int) error {
		out, err := r.RunWithFault(clonePlan(plans[i]), 0)
		if err != nil {
			return fmt.Errorf("parallel plan %d: %w", i, err)
		}
		pooled[i] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if pooled[i] != seq[i] {
			t.Errorf("plan %d (kind %v trigger %d): sequential %v, 8-worker %v",
				i, plans[i].Kind, plans[i].TriggerIndex, seq[i], pooled[i])
		}
	}
}

// TestEarlyCutoffMatchesComparator spot-checks the cutoff logic
// directly: for faults injected into the first launch of a multi-launch
// kernel, a Masked verdict must mean the full pipeline agrees (the
// comparator would also have passed).
func TestEarlyCutoffMatchesComparator(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("GAUSSIAN", GaussianBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(0xcafe, 7)
	for i := 0; i < 25; i++ {
		plan := &sim.FaultPlan{
			Kind:         sim.FaultValueBit,
			TriggerIndex: uint64(rng.Int64N(int64(r.GoldenProfiles()[0].LaneOps))),
			Bit:          rng.IntN(64),
		}
		fast, err := r.RunWithFault(clonePlan(plan), 0)
		if err != nil {
			t.Fatal(err)
		}
		full := runWithFaultFull(t, r, clonePlan(plan), 0)
		if fast != full {
			t.Fatalf("trigger %d bit %d: cutoff %v vs comparator %v",
				plan.TriggerIndex, plan.Bit, fast, full)
		}
	}
}
