package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/profiler"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// studySize is the study's sample counts (core.Options). The full size
// keeps fault replay the larger part of the run, as in the canonical
// -trials 450 -faults 640 study; the probe size is the smallest study
// that still reaches every layer, restricted to FMXM and the micros.
type studySize struct {
	trials, faults, microAVF, optFaults int
	only                                string // restrict the suite to one entry ("": all)
}

var (
	studyFull  = studySize{trials: 80, faults: 160, microAVF: 40, optFaults: 48}
	studyProbe = studySize{trials: 8, faults: 16, microAVF: 4, optFaults: 8, only: "FMXM"}
)

var studyScale = fmt.Sprintf("core.Run -trials %d -faults %d, MicroAVFFaults %d, OptFaults %d; artifacts + SaveJSON",
	studyFull.trials, studyFull.faults, studyFull.microAVF, studyFull.optFaults)

func (s studySize) options(seed uint64) core.Options {
	return core.Options{
		MicroTrials: s.trials, CodeTrials: s.trials,
		SassifiPerClass: s.faults / 4, NVBitFITotal: s.faults,
		MicroAVFFaults: s.microAVF, OptFaults: s.optFaults,
		Seed: seed,
	}
}

// setupStudy does nothing: the study's only input is its options, and
// its first timed operation is core.Run, so set-up is process start.
func setupStudy(uint64) error { return nil }

// fixedStudy runs the reproduction exactly as gpurel-repro does: the
// two-device study, every artifact rendered, and the study JSON saved.
func fixedStudy(seed uint64, dir string) outcome {
	out := outcome{attempted: 1}
	t0 := time.Now()
	study, err := core.Run(studyFull.options(seed))
	if err != nil {
		out.fail("study: %v", err)
		return out
	}
	dir = filepath.Join(dir, "study")
	paths, err := persistStudy(nil, "", dir, []*core.DeviceStudy{study.Volta, study.Kepler})
	out.wall = time.Since(t0)
	if err != nil {
		out.fail("study: %v", err)
		return out
	}
	out.digest = checkRoundTrip(nil, "", paths, &out)
	return out
}

// artifacts are the renderers gpurel-repro writes, text and CSV.
var artifacts = []struct {
	name   string
	render func(*core.DeviceStudy, bool) string
}{
	{"table1", report.TableI}, {"fig1", report.Figure1}, {"fig3", report.Figure3},
	{"fig4", report.Figure4}, {"fig5", report.Figure5}, {"fig6", report.Figure6},
	{"hidden", report.HiddenDUE}, {"residency", report.ResidencyTable},
	{"due_gap", report.DUEGapTable}, {"due", report.DUETable},
	{"crossval", report.CrossValTable}, {"bitband", report.StudyBitBand},
	{"opt", report.OptTable}, {"opt_pressure", report.OptPressureTable},
	{"patterns", report.PatternsTable}, {"patterns_twolevel", report.TwoLevelTable},
	{"due_modes", report.DUEModesTable},
}

func devTag(dev *device.Device) string {
	if dev.Arch == device.Kepler {
		return "kepler"
	}
	return "volta"
}

// persistStudy renders every artifact and saves each device's study
// JSON under dir, returning the JSON paths.
func persistStudy(tr *tracer, trace, dir string, dss []*core.DeviceStudy) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	err := tr.call(0, trace, "report.render", func(int) error {
		for _, ds := range dss {
			tag := devTag(ds.Dev)
			for _, a := range artifacts {
				for _, csv := range []bool{false, true} {
					ext := ".txt"
					if csv {
						ext = ".csv"
					}
					name := filepath.Join(dir, a.name+"_"+tag+ext)
					if err := os.WriteFile(name, []byte(a.render(ds, csv)), 0o644); err != nil {
						return err
					}
				}
			}
			if err := os.WriteFile(filepath.Join(dir, "full_"+tag+".txt"), []byte(report.Full(ds, false)), 0o644); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, ds := range dss {
		p := filepath.Join(dir, "study_"+devTag(ds.Dev)+".json")
		if err := tr.call(0, trace, "core.SaveJSON", func(int) error { return ds.SaveJSON(p) }); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// checkRoundTrip reloads each saved study, saves it again and requires
// identical bytes; it returns the digest of the saved studies.
func checkRoundTrip(tr *tracer, trace string, paths []string, out *outcome) string {
	var blobs [][]byte
	for _, p := range paths {
		orig, err := os.ReadFile(p)
		if err != nil {
			out.problem("study: %v", err)
			continue
		}
		var ds *core.DeviceStudy
		err = tr.call(0, trace, "core.LoadDeviceStudy", func(int) error {
			ds, err = core.LoadDeviceStudy(p)
			return err
		})
		if err != nil {
			out.problem("study: reloading %s: %v", filepath.Base(p), err)
			continue
		}
		again := p + ".again"
		if err := ds.SaveJSON(again); err != nil {
			out.problem("study: re-saving %s: %v", filepath.Base(p), err)
			continue
		}
		back, err := os.ReadFile(again)
		if err != nil || !bytes.Equal(orig, back) {
			out.problem("study: %s does not round-trip byte-identically through LoadDeviceStudy/SaveJSON", filepath.Base(p))
		}
		blobs = append(blobs, orig)
	}
	return digest(blobs...)
}

// studyWalk reenacts core.RunDevice call by call with a span around
// each call into a module, so self time can be attributed per layer.
// It runs the same campaigns with the same seeds and the same split of
// workers across and within campaigns, so it saves the same study.
type studyWalk struct {
	tr      *tracer
	size    studySize
	seed    uint64
	workers int

	mu      sync.Mutex // guards everything below and the studies' maps
	runners map[string]*walkRunner
	built   []*kernels.Runner
	replay  []replayTarget
	// counters for the per-layer metrics
	injTrials, beamTrials int
	masked, sdc, due      int
}

type walkRunner struct {
	once sync.Once
	r    *kernels.Runner
	err  error
}

func walkStudy(tr *tracer, seed uint64, dir string, probe bool) (metrics, outcome) {
	size := studyFull
	if probe {
		size = studyProbe
	}
	out := outcome{attempted: 1}
	mark := tr.mark()
	w := &studyWalk{tr: tr, size: size, seed: seed, workers: runtime.GOMAXPROCS(0),
		runners: map[string]*walkRunner{}}
	t0 := time.Now()
	var paths []string
	volta, err := w.device(device.V100(), nil)
	if err == nil {
		var kepler *core.DeviceStudy
		kepler, err = w.device(device.K40c(), volta.AVF[faultinj.NVBitFI])
		if err == nil {
			dss := []*core.DeviceStudy{volta, kepler}
			paths, err = persistStudy(tr, "study/persist", filepath.Join(dir, "walk-study"), dss)
			out.wall = time.Since(t0)
			w.predict(dss)
		}
	}
	if err != nil {
		out.fail("study walk: %v", err)
		return nil, out
	}
	// The reenactment saves the same bytes as core.Run when it matches
	// core.RunDevice; a mismatch means the walk no longer measures the
	// study, which runTraced reports.
	out.digest = checkRoundTrip(tr, "study/persist", paths, &out)
	if probe {
		out.digest = ""
	}

	sort.Slice(w.replay, func(i, j int) bool {
		a, b := w.replay[i].r, w.replay[j].r
		return a.Dev.Name+"/"+a.Name < b.Dev.Name+"/"+b.Name
	})
	m := replayWalk(tr, seed, w.replay, probe, &out)
	for _, r := range w.built {
		r := r
		tr.call(0, "study/asm", "asm.Build", func(int) error {
			_, err := r.Build(r.Dev, r.Opt)
			return err
		})
	}

	st := newSpanStats(tr.since(mark))
	var tally runnerTally
	for _, r := range w.built {
		tally.add(r)
	}
	runnerMetrics(m, st, tally)
	sec := func(name string) float64 { return st.selfSum(name).Seconds() }
	for _, s := range st.spans {
		if s.Name == "core.RunDevice" {
			m.set("core.rundevice_s."+strings.TrimPrefix(s.Trace, "study/"), "s", s.dur().Seconds())
		}
	}
	m.set("core.finalize_ms", "ms", sec("core.Finalize")*1e3)
	m.set("core.persist_ms", "ms", (sec("core.SaveJSON")+sec("core.LoadDeviceStudy"))*1e3)
	m.set("report.render_ms", "ms", sec("report.render")*1e3)
	m.set("profiler.profile_ms", "ms", sec("profiler.Profile")*1e3)
	m.set("fit.predict_us", "us", sec("fit.Predict")*1e6/float64(max(1, st.count("fit.Predict"))))
	camp := sec("faultinj.RunWithRunner")
	m.set("faultinj.campaign_s", "s", camp)
	m.set("faultinj.trials", "count", float64(w.injTrials))
	m.set("faultinj.trial_us", "us", camp*1e6/float64(max(1, w.injTrials)))
	m.set("faultinj.twolevel_s", "s", sec("faultinj.TwoLevelEstimate"))
	m.set("faultinj.optmatrix_s", "s", sec("faultinj.RunOptMatrix"))
	m.set("faultinj.masked", "count", float64(w.masked))
	m.set("faultinj.sdc", "count", float64(w.sdc))
	m.set("faultinj.due", "count", float64(w.due))
	bs := sec("beam.Run")
	m.set("beam.campaign_s", "s", bs)
	m.set("beam.trials", "count", float64(w.beamTrials))
	m.set("beam.trial_us", "us", bs*1e6/float64(max(1, w.beamTrials)))
	m.set("analysis.estimate_ms", "ms", sec("analysis.StaticEstimate")*1e3)
	m.set("analysis.scalar_ms", "ms", sec("analysis.StaticEstimateScalar")*1e3)
	m.set("analysis.duemode_ms", "ms", sec("analysis.StaticDUEModes")*1e3)
	m.set("analysis.hidden_ms", "ms", (sec("analysis.StaticHidden")+sec("analysis.MeasuredHidden"))*1e3)
	return m, out
}

// runner returns the walk's runner for (entry, opt), building it inside
// the calling span on first use; concurrent callers wait for the one
// build, as with core's runner cache.
func (w *studyWalk) runner(parent int, trace, name string, build kernels.Builder, dev *device.Device, opt asm.OptLevel) (*kernels.Runner, error) {
	key := fmt.Sprintf("%s/%s/%s", dev.Name, name, opt)
	w.mu.Lock()
	e := w.runners[key]
	if e == nil {
		e = &walkRunner{}
		w.runners[key] = e
	}
	w.mu.Unlock()
	e.once.Do(func() {
		e.r, e.err = newRunner(w.tr, parent, trace, name, build, dev, opt)
		if e.err == nil {
			w.mu.Lock()
			w.built = append(w.built, e.r)
			w.mu.Unlock()
		}
	})
	return e.r, e.err
}

// phase runs fn for i in [0, n) the way core.RunDevice runs a phase:
// min(workers, n) calls at once, each given the rest of the worker
// budget for its own campaign. It returns the first error.
func (w *studyWalk) phase(parent int, trace string, n int, fn func(i, span, inner int) error) error {
	id := w.tr.begin(parent, trace, "bench.phase")
	defer w.tr.end(id)
	outer := max(1, min(w.workers, n))
	inner := max(1, w.workers/outer)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var first error
	work := make(chan int)
	for k := 0; k < outer; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i, id, inner); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return first
}

func (w *studyWalk) tally(t faultinj.Tally) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.injTrials += t.Injected
	w.masked += t.Masked
	w.sdc += t.SDC
	w.due += t.DUE
}

// device reenacts core.RunDevice and Finalize for one device.
func (w *studyWalk) device(dev *device.Device, voltaAVF map[string]*faultinj.Result) (*core.DeviceStudy, error) {
	tr, opts := w.tr, w.size.options(w.seed)
	tag := devTag(dev)
	root := tr.begin(0, "study/"+tag, "core.RunDevice")
	defer tr.end(root)
	ds := &core.DeviceStudy{
		Dev:                       dev,
		MicroBeam:                 map[string]*beam.Result{},
		Profiles:                  map[string]*profiler.CodeProfile{},
		AVF:                       map[faultinj.Tool]map[string]*faultinj.Result{},
		StaticAVF:                 map[string]*analysis.Estimate{},
		ScalarAVF:                 map[string]*analysis.Estimate{},
		StaticDUEModes:            map[string]*analysis.DUEModeEstimate{},
		Beam:                      map[core.BeamKey]*beam.Result{},
		Predictions:               map[core.PredKey]fit.Prediction{},
		OptMatrix:                 map[string]*faultinj.OptMatrix{},
		TwoLevel:                  map[string]*faultinj.TwoLevelResult{},
		StaticHidden:              map[string]*analysis.HiddenEstimate{},
		MeasuredHidden:            map[string]*analysis.HiddenEstimate{},
		DUEUnderestimate:          map[bool]float64{},
		DUECorrectedUnderestimate: map[bool]float64{},
		DUEMeasuredUnderestimate:  map[bool]float64{},
	}
	locked := func(f func()) {
		w.mu.Lock()
		defer w.mu.Unlock()
		f()
	}
	dynTool := faultinj.NVBitFI
	if dev.Arch == device.Kepler {
		dynTool = faultinj.Sassifi
	}

	// 1. Micro-benchmark beams, their profiles and hidden exposure, and
	// the micro AVF injections.
	microAVF, microPhi, microHidden := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var rfBytes int
	micros := microbench.Catalog(dev)
	trace := "study/" + tag + "/micro"
	err := w.phase(root, trace, len(micros), func(i, id, inner int) error {
		mb := micros[i]
		r, err := w.runner(id, trace, mb.Name, mb.Build, dev, asm.O2)
		if err != nil {
			return fmt.Errorf("micro %s: %w", mb.Name, err)
		}
		tr.call(id, trace, "profiler.Profile", func(int) error {
			if mp, err := profiler.Profile(r); err == nil {
				locked(func() { microPhi[mb.Name] = mp.Phi() })
			}
			return nil
		})
		tr.call(id, trace, "analysis.MeasuredHidden", func(int) error {
			mh := faultinj.MeasuredHidden(r).DUEExposure()
			locked(func() { microHidden[mb.Name] = mh })
			return nil
		})
		err = tr.call(id, trace, "beam.Run", func(int) error {
			res, err := beam.Run(beam.Config{ECC: mb.Name != "RF", Trials: opts.MicroTrials,
				Workers: inner, Seed: opts.Seed ^ hash(mb.Name)}, r)
			if err == nil {
				locked(func() {
					ds.MicroBeam[mb.Name] = res
					w.beamTrials += res.Trials
				})
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("micro beam %s: %w", mb.Name, err)
		}
		if mb.Name == "RF" {
			l := r.Instance().Launches[0]
			locked(func() {
				rfBytes = l.GridX * l.GridY * l.BlockThreads * l.Prog.NumRegs * 4
				microAVF[mb.Name] = 1
			})
			return nil
		}
		ir, err := w.runner(id, trace, mb.Name, mb.Build, dev, dynTool.OptLevel())
		if err != nil {
			return fmt.Errorf("micro %s at %s opt: %w", mb.Name, dynTool, err)
		}
		tr.call(id, trace, "faultinj.RunWithRunner", func(int) error {
			res, err := faultinj.RunWithRunner(faultinj.Config{Tool: dynTool,
				FaultsPerClass: opts.MicroAVFFaults, TotalFaults: opts.MicroAVFFaults * 3,
				Workers: inner, Seed: opts.Seed ^ hash(mb.Name) ^ 0xa7f5a17}, ir)
			if err == nil { // core skips a failed micro AVF campaign too
				locked(func() { microAVF[mb.Name] = res.SDCAVF.P })
				w.tally(res.Tally)
			}
			return nil
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.call(root, trace, "fit.FromMicroResults", func(int) error {
		var err error
		ds.Units, err = fit.FromMicroResults(dev.Name, ds.MicroBeam, microAVF, microPhi, microHidden, rfBytes)
		return err
	})
	if err != nil {
		return nil, err
	}

	entries := suite.ForDevice(dev)
	if w.size.only != "" {
		e, err := suite.Find(entries, w.size.only)
		if err != nil {
			return nil, err
		}
		entries = []suite.Entry{e}
	}

	// 2. Profiling and hidden-resource estimates.
	trace = "study/" + tag + "/profile"
	err = w.phase(root, trace, len(entries), func(i, id, _ int) error {
		e := entries[i]
		r, err := w.runner(id, trace, e.Name, e.Build, dev, asm.O2)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", e.Name, err)
		}
		var cp *profiler.CodeProfile
		if err := tr.call(id, trace, "profiler.Profile", func(int) error {
			cp, err = profiler.Profile(r)
			return err
		}); err != nil {
			return err
		}
		var hid, mhid *analysis.HiddenEstimate
		tr.call(id, trace, "analysis.StaticHidden", func(int) error {
			hid = faultinj.StaticHidden(r)
			return nil
		})
		tr.call(id, trace, "analysis.MeasuredHidden", func(int) error {
			mhid = faultinj.MeasuredHidden(r)
			return nil
		})
		locked(func() {
			ds.Profiles[e.Name] = cp
			ds.StaticHidden[e.Name] = hid
			ds.MeasuredHidden[e.Name] = mhid
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3. Injection campaigns and their static counterparts.
	tools := []faultinj.Tool{faultinj.NVBitFI}
	if dev.Arch == device.Kepler {
		tools = []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	}
	type injJob struct {
		tool faultinj.Tool
		e    suite.Entry
	}
	var injJobs []injJob
	for _, tool := range tools {
		ds.AVF[tool] = map[string]*faultinj.Result{}
		for _, e := range entries {
			if injectable(dev, tool, e) {
				injJobs = append(injJobs, injJob{tool, e})
			}
		}
	}
	trace = "study/" + tag + "/inject"
	err = w.phase(root, trace, len(injJobs), func(i, id, inner int) error {
		j := injJobs[i]
		r, err := w.runner(id, trace, j.e.Name, j.e.Build, dev, j.tool.OptLevel())
		if err != nil {
			return fmt.Errorf("%s on %s: %w", j.tool, j.e.Name, err)
		}
		var res *faultinj.Result
		if err := tr.call(id, trace, "faultinj.RunWithRunner", func(int) error {
			res, err = faultinj.RunWithRunner(faultinj.Config{Tool: j.tool,
				FaultsPerClass: opts.SassifiPerClass, TotalFaults: opts.NVBitFITotal,
				Workers: inner, Seed: opts.Seed ^ hash(j.e.Name) ^ uint64(j.tool)}, r)
			return err
		}); err != nil {
			return fmt.Errorf("%s on %s: %w", j.tool, j.e.Name, err)
		}
		w.tally(res.Tally)
		locked(func() { ds.AVF[j.tool][j.e.Name] = res })
		if j.tool != faultinj.NVBitFI {
			return nil
		}
		var st, sc *analysis.Estimate
		var dm *analysis.DUEModeEstimate
		if err := tr.call(id, trace, "analysis.StaticEstimate", func(int) error {
			st, err = faultinj.StaticEstimate(r, j.tool)
			return err
		}); err != nil {
			return err
		}
		if err := tr.call(id, trace, "analysis.StaticEstimateScalar", func(int) error {
			sc, err = faultinj.StaticEstimateScalar(r, j.tool)
			return err
		}); err != nil {
			return err
		}
		if err := tr.call(id, trace, "analysis.StaticDUEModes", func(int) error {
			dm, err = faultinj.StaticDUEModes(r, j.tool)
			return err
		}); err != nil {
			return err
		}
		locked(func() {
			ds.StaticAVF[j.e.Name], ds.ScalarAVF[j.e.Name], ds.StaticDUEModes[j.e.Name] = st, sc, dm
			w.replay = append(w.replay, replayTarget{r, j.tool})
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3b. Optimization matrices over the cross-validation kernels.
	var matrix []suite.Entry
	for _, e := range entries {
		if matrixKernel(e.Name) {
			matrix = append(matrix, e)
		}
	}
	trace = "study/" + tag + "/optmatrix"
	err = w.phase(root, trace, len(matrix), func(i, phaseID, inner int) error {
		e := matrix[i]
		return tr.call(phaseID, trace, "faultinj.RunOptMatrix", func(id int) error {
			runnerFor := func(name string, build kernels.Builder, dev *device.Device, opt asm.OptLevel) (*kernels.Runner, error) {
				return w.runner(id, trace, name, build, dev, opt)
			}
			m, err := faultinj.RunOptMatrix(faultinj.OptMatrixConfig{Faults: opts.OptFaults,
				Workers: inner, Seed: opts.Seed ^ hash(e.Name) ^ 0x097a11e1}, e.Name, e.Build, dev, runnerFor)
			if err != nil {
				return fmt.Errorf("opt matrix %s: %w", e.Name, err)
			}
			for _, cell := range m.Cells {
				w.tally(cell.Dynamic.Tally)
				r, err := w.runner(id, trace, e.Name, e.Build, dev, cell.Opt)
				if err != nil {
					return err
				}
				var cp *profiler.CodeProfile
				if err := tr.call(id, trace, "profiler.Profile", func(int) error {
					cp, err = profiler.Profile(r)
					return err
				}); err != nil {
					return err
				}
				fit.PredictOptCell(cp, cell, ds.Units, true)
			}
			locked(func() { ds.OptMatrix[e.Name] = m })
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// 3c. Two-level estimates over the same kernels.
	var twoLevel []suite.Entry
	for _, e := range matrix {
		if injectable(dev, faultinj.NVBitFI, e) {
			twoLevel = append(twoLevel, e)
		}
	}
	trace = "study/" + tag + "/twolevel"
	err = w.phase(root, trace, len(twoLevel), func(i, id, inner int) error {
		e := twoLevel[i]
		r, err := w.runner(id, trace, e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
		if err != nil {
			return fmt.Errorf("two-level %s: %w", e.Name, err)
		}
		return tr.call(id, trace, "faultinj.TwoLevelEstimate", func(int) error {
			res, err := faultinj.TwoLevelEstimateWithRunner(faultinj.TwoLevelConfig{Tool: faultinj.NVBitFI,
				Workers: inner, Seed: opts.Seed ^ hash(e.Name) ^ 0x2c0de1}, r)
			if err != nil {
				return fmt.Errorf("two-level %s: %w", e.Name, err)
			}
			locked(func() { ds.TwoLevel[e.Name] = res })
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// 4. Beam campaigns over the codes.
	keys := core.BeamConfigs(dev, entries)
	trace = "study/" + tag + "/beam"
	err = w.phase(root, trace, len(keys), func(i, id, inner int) error {
		key := keys[i]
		e, err := suite.Find(entries, key.Code)
		if err != nil {
			return err
		}
		r, err := w.runner(id, trace, e.Name, e.Build, dev, asm.O2)
		if err != nil {
			return err
		}
		return tr.call(id, trace, "beam.Run", func(int) error {
			res, err := beam.Run(beam.Config{ECC: key.ECC, Trials: opts.CodeTrials,
				Workers: inner, Seed: opts.Seed ^ hash(e.Name) ^ boolBit(key.ECC)}, r)
			if err != nil {
				return fmt.Errorf("beam %s ecc=%v: %w", e.Name, key.ECC, err)
			}
			locked(func() {
				ds.Beam[key] = res
				w.beamTrials += res.Trials
			})
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	err = tr.call(root, "study/"+tag+"/finalize", "core.Finalize", func(int) error { return ds.Finalize(voltaAVF) })
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// predict times fit.Predict on every (code, NVBitFI campaign, beam
// configuration) the studies hold.
func (w *studyWalk) predict(dss []*core.DeviceStudy) {
	for _, ds := range dss {
		keys := make([]core.BeamKey, 0, len(ds.Beam))
		for key := range ds.Beam {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Code != keys[j].Code {
				return keys[i].Code < keys[j].Code
			}
			return !keys[i].ECC && keys[j].ECC
		})
		for _, key := range keys {
			key := key
			cp, avf := ds.Profiles[key.Code], ds.AVF[faultinj.NVBitFI][key.Code]
			if cp == nil || avf == nil {
				continue
			}
			w.tr.call(0, "study/"+devTag(ds.Dev)+"/predict", "fit.Predict", func(int) error {
				fit.Predict(cp, avf, ds.Units, key.ECC)
				return nil
			})
		}
	}
}

// The helpers below restate core's unexported seed and population
// rules so the reenactment runs the same campaigns as core.RunDevice.

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1 << 40
	}
	return 0
}

func matrixKernel(name string) bool {
	for _, k := range faultinj.CrossValKernels {
		if k == name {
			return true
		}
	}
	return false
}

func injectable(dev *device.Device, tool faultinj.Tool, e suite.Entry) bool {
	if dev.Arch == device.Kepler && e.Library {
		return false
	}
	return !e.FP16
}
