package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

const staticScale = "every suite entry on both devices at O1 and O2 (58 runners); lint over every distinct program, micro-benchmarks included"

// staticJob is one runner of the static workload.
type staticJob struct {
	dev   *device.Device
	opt   asm.OptLevel
	entry suite.Entry
}

// tool is the injector whose site population the estimators cover:
// SASSIFI's for its O1 pipeline, NVBitFI's for O2.
func (j staticJob) tool() faultinj.Tool {
	if j.opt == asm.O1 {
		return faultinj.Sassifi
	}
	return faultinj.NVBitFI
}

func (j staticJob) key() string { return fmt.Sprintf("%s/%s/%s", j.dev.Name, j.opt, j.entry.Name) }

// staticJobs lists the workload's runners in an order drawn from the
// seed. The order changes no result; the seed only decides which
// runner pays the cold decode of a shared program.
func staticJobs(seed uint64, probe bool) []staticJob {
	var jobs []staticJob
	for _, dev := range []*device.Device{device.V100(), device.K40c()} {
		for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
			if probe && opt != asm.O2 {
				continue
			}
			for _, e := range suite.ForDevice(dev) {
				if probe && e.Name != "FMXM" {
					continue
				}
				jobs = append(jobs, staticJob{dev, opt, e})
			}
		}
	}
	shuffle(stats.NewRNG(seed, 0x57a71c), jobs)
	return jobs
}

// setupStatic draws the job list, the workload's only input.
func setupStatic(seed uint64) error {
	staticJobs(seed, false)
	return nil
}

// staticRecord is the deterministic output of one runner.
type staticRecord struct {
	Key        string                    `json:"key"`
	SDC        float64                   `json:"sdc"`
	DUE        float64                   `json:"due"`
	ScalarSDC  float64                   `json:"scalar_sdc"`
	ScalarDUE  float64                   `json:"scalar_due"`
	Modes      *analysis.DUEModeEstimate `json:"modes"`
	HiddenDUE  float64                   `json:"hidden_due"`
	Explain    *analysis.OptExplain      `json:"explain"`
	LintErrors int                       `json:"lint_errors"`
	LintWarns  int                       `json:"lint_warnings"`
	Programs   []string                  `json:"programs"`
}

func fixedStatic(seed uint64, dir string) outcome {
	_, out := walkStatic(nil, seed, dir, false)
	return out
}

// walkStatic builds each runner and runs every injection-free estimator
// and the lint over it, sequentially. With a tracer it also times each
// entry's Builder alone and returns the per-layer metrics.
func walkStatic(tr *tracer, seed uint64, _ string, probe bool) (metrics, outcome) {
	var out outcome
	mark := tr.mark()
	jobs := staticJobs(seed, probe)
	records := make([]staticRecord, 0, len(jobs))
	var tally runnerTally
	t0 := time.Now()
	for _, j := range jobs {
		trace := "static/" + j.key()
		root := tr.begin(0, trace, "bench.runner")
		rec, r := staticRunner(tr, root, trace, j, &out)
		tr.end(root)
		if r != nil {
			tally.add(r)
			records = append(records, rec)
		}
	}
	// Lint the micro-benchmarks too; the suite programs were linted per
	// runner above.
	micro := lintMicros(tr, jobs, &out)
	out.wall = time.Since(t0)

	sort.Slice(records, func(a, b int) bool { return records[a].Key < records[b].Key })
	blob, err := json.Marshal(struct {
		Runners []staticRecord `json:"runners"`
		Micros  []lintRecord   `json:"micros"`
	}{records, micro})
	if err != nil {
		out.problem("static: encoding results: %v", err)
	}
	out.digest = digest(blob)
	if tr == nil {
		return nil, out
	}

	for _, j := range jobs {
		j := j
		tr.call(0, "static/asm", "asm.Build", func(int) error {
			_, err := j.entry.Build(j.dev, j.opt)
			return err
		})
	}
	st := newSpanStats(tr.since(mark))
	m := metrics{}
	runnerMetrics(m, st, tally)
	ms := func(name string) float64 { return st.selfSum(name).Seconds() * 1e3 }
	m.set("analysis.estimate_ms", "ms", ms("analysis.StaticEstimate"))
	m.set("analysis.scalar_ms", "ms", ms("analysis.StaticEstimateScalar"))
	m.set("analysis.duemode_ms", "ms", ms("analysis.StaticDUEModes"))
	m.set("analysis.hidden_ms", "ms", ms("analysis.StaticHidden"))
	m.set("analysis.explain_ms", "ms", ms("analysis.ExplainRunner"))
	m.set("analysis.lint_ms", "ms", ms("analysis.Analyze"))
	m.set("analysis.programs", "count", float64(st.count("analysis.Analyze")))
	return m, out
}

// staticRunner builds one runner and runs the estimators and the lint
// over it.
func staticRunner(tr *tracer, root int, trace string, j staticJob, out *outcome) (staticRecord, *kernels.Runner) {
	rec := staticRecord{Key: j.key()}
	r, err := newRunner(tr, root, trace, j.entry.Name, j.entry.Build, j.dev, j.opt)
	if err != nil {
		out.attempted += 5
		out.fail("static %s: %v", j.key(), err)
		return rec, nil
	}
	tool := j.tool()
	estimate := func(name string, fn func() error) {
		out.attempted++
		if err := tr.call(root, trace, name, func(int) error { return fn() }); err != nil {
			out.fail("static %s: %s: %v", j.key(), name, err)
		}
	}
	estimate("analysis.StaticEstimate", func() error {
		e, err := faultinj.StaticEstimate(r, tool)
		if err == nil {
			rec.SDC, rec.DUE = e.SDC, e.DUE
		}
		return err
	})
	estimate("analysis.StaticEstimateScalar", func() error {
		e, err := faultinj.StaticEstimateScalar(r, tool)
		if err == nil {
			rec.ScalarSDC, rec.ScalarDUE = e.SDC, e.DUE
		}
		return err
	})
	estimate("analysis.StaticDUEModes", func() error {
		var err error
		rec.Modes, err = faultinj.StaticDUEModes(r, tool)
		return err
	})
	estimate("analysis.StaticHidden", func() error {
		rec.HiddenDUE = faultinj.StaticHidden(r).DUE
		return nil
	})
	estimate("analysis.ExplainRunner", func() error {
		rec.Explain = faultinj.ExplainRunner(r)
		return nil
	})
	values := []float64{rec.SDC, rec.DUE, rec.ScalarSDC, rec.ScalarDUE, rec.HiddenDUE}
	if rec.Modes != nil {
		values = append(values, rec.Modes.DUEMass, rec.Modes.Hang, rec.Modes.IllegalAddress,
			rec.Modes.SyncError, rec.Modes.Unattributed)
	}
	for _, v := range values {
		if math.IsNaN(v) || v < 0 || v > 1 {
			out.problem("static %s: estimate %v outside [0,1]", j.key(), v)
		}
	}

	seen := map[string]bool{}
	for _, l := range r.Instance().Launches {
		if seen[l.Prog.Name] {
			continue
		}
		seen[l.Prog.Name] = true
		lr := lintProgram(tr, root, trace, l.Prog, out)
		rec.Programs = append(rec.Programs, l.Prog.Name)
		rec.LintErrors += lr.Errors
		rec.LintWarns += lr.Warnings
	}
	if rec.LintErrors > 0 {
		out.problem("static %s: %d lint errors", j.key(), rec.LintErrors)
	}
	return rec, r
}

// lintRecord is the lint verdict of one program.
type lintRecord struct {
	Program  string `json:"program"`
	Errors   int    `json:"errors"`
	Warnings int    `json:"warnings"`
}

func lintProgram(tr *tracer, parent int, trace string, p *isa.Program, out *outcome) lintRecord {
	out.attempted++
	var a *analysis.Result
	tr.call(parent, trace, "analysis.Analyze", func(int) error {
		a = analysis.Analyze(p)
		return nil
	})
	return lintRecord{Program: p.Name, Errors: len(a.Errors()), Warnings: len(a.Warnings())}
}

// lintMicros lints the micro-benchmark programs of every (device, opt)
// the jobs cover.
func lintMicros(tr *tracer, jobs []staticJob, out *outcome) []lintRecord {
	type cfg struct {
		dev *device.Device
		opt asm.OptLevel
	}
	var cfgs []cfg
	seen := map[string]bool{}
	for _, j := range jobs {
		k := fmt.Sprintf("%s/%s", j.dev.Name, j.opt)
		if !seen[k] {
			seen[k] = true
			cfgs = append(cfgs, cfg{j.dev, j.opt})
		}
	}
	var recs []lintRecord
	for _, c := range cfgs {
		trace := fmt.Sprintf("static/%s/%s/micros", c.dev.Name, c.opt)
		for _, mb := range microbench.Catalog(c.dev) {
			inst, err := mb.Build(c.dev, c.opt)
			if err != nil {
				out.attempted++
				out.fail("static micro %s: %v", mb.Name, err)
				continue
			}
			for _, l := range inst.Launches {
				lr := lintProgram(tr, 0, trace, l.Prog, out)
				lr.Program = fmt.Sprintf("%s/%s/%s", c.dev.Name, c.opt, lr.Program)
				if lr.Errors > 0 {
					out.problem("static micro %s: %d lint errors", lr.Program, lr.Errors)
				}
				recs = append(recs, lr)
			}
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Program < recs[b].Program })
	return recs
}
