package faultinj

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

// freshLaunchAnalysis analyzes launch i of r from scratch, bypassing the
// runner's memo.
func freshLaunchAnalysis(r *kernels.Runner, i int) *analysis.Result {
	l := r.Instance().Launches[i]
	return analysis.AnalyzeLaunch(l.Prog, &analysis.Bounds{
		GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
	})
}

// sameAnalysis reports whether two analyses hold equal products,
// floats compared with ==.
func sameAnalysis(a, b *analysis.Result) bool {
	return reflect.DeepEqual(a.ACE, b.ACE) && reflect.DeepEqual(a.ACEVec, b.ACEVec) &&
		reflect.DeepEqual(a.DUEModeVec, b.DUEModeVec) && reflect.DeepEqual(a.Facts, b.Facts) &&
		reflect.DeepEqual(a.PredFacts, b.PredFacts) && reflect.DeepEqual(a.LiveOut, b.LiveOut) &&
		reflect.DeepEqual(a.PredLiveOut, b.PredLiveOut) && reflect.DeepEqual(a.Findings, b.Findings) &&
		reflect.DeepEqual(a.DefUse, b.DefUse) && reflect.DeepEqual(a.CFG, b.CFG) &&
		reflect.DeepEqual(a.Bounds, b.Bounds)
}

// unboundedStaticHidden is StaticHidden over a fresh unbounded
// analysis.Analyze per launch, the computation the shared bounded
// analysis replaced.
func unboundedStaticHidden(r *kernels.Runner) *analysis.HiddenEstimate {
	profiles := r.GoldenProfiles()
	var ests []*analysis.HiddenEstimate
	var weights []float64
	for i, l := range r.Instance().Launches {
		a := analysis.Analyze(l.Prog)
		ests = append(ests, a.HiddenEstimate(a.OpWeights(profiles[i].PerOpLane)))
		weights = append(weights, float64(profiles[i].ActiveWarpCycles))
	}
	return analysis.CombineHidden(r.Name, ests, weights)
}

// staticViews is every injection-free estimate of one runner.
type staticViews struct {
	Estimate *analysis.Estimate
	Scalar   *analysis.Estimate
	Modes    *analysis.DUEModeEstimate
	Hidden   *analysis.HiddenEstimate
	Explain  *analysis.OptExplain
}

func allStaticViews(r *kernels.Runner, tool Tool) (staticViews, error) {
	var v staticViews
	var err error
	if v.Estimate, err = StaticEstimate(r, tool); err != nil {
		return v, err
	}
	if v.Scalar, err = StaticEstimateScalar(r, tool); err != nil {
		return v, err
	}
	if v.Modes, err = StaticDUEModes(r, tool); err != nil {
		return v, err
	}
	v.Hidden = StaticHidden(r)
	v.Explain = ExplainRunner(r)
	return v, nil
}

// suiteRunner builds the named suite entry's runner for dev at tool's
// optimization level.
func suiteRunner(t *testing.T, dev *device.Device, name string, tool Tool) *kernels.Runner {
	t.Helper()
	e, err := suite.Find(suite.ForDevice(dev), name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := kernels.NewRunner(name, e.Build, dev, tool.OptLevel())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every static estimator reads the runner's shared per-launch analysis;
// each must equal, float for float, the same estimator run where nothing
// else has touched the analyses: a runner whose memo is still empty, so
// its first estimator analyzes every launch afresh. The shared analyses
// must themselves equal a fresh AnalyzeLaunch of their launch after all
// five estimators have read them, and StaticHidden must equal the
// unbounded per-launch analysis.Analyze path it used before the memo.
func TestStaticEstimatorsMatchFreshAnalysis(t *testing.T) {
	tools := []Tool{Sassifi, NVBitFI}
	if testing.Short() {
		tools = tools[1:] // the O2 sweep only
	}
	for _, tool := range tools {
		for _, dev := range []*device.Device{device.V100(), device.K40c()} {
			for _, e := range suite.ForDevice(dev) {
				e, dev, tool := e, dev, tool
				t.Run(fmt.Sprintf("%s/%s/%s", dev.Name, tool.OptLevel(), e.Name), func(t *testing.T) {
					runner := func() *kernels.Runner {
						r, err := kernels.NewRunner(e.Name, e.Build, dev, tool.OptLevel())
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					shared := runner()
					got, err := allStaticViews(shared, tool)
					if err != nil {
						t.Fatal(err)
					}

					var want staticViews
					if want.Estimate, err = StaticEstimate(runner(), tool); err != nil {
						t.Fatal(err)
					}
					if want.Scalar, err = StaticEstimateScalar(runner(), tool); err != nil {
						t.Fatal(err)
					}
					if want.Modes, err = StaticDUEModes(runner(), tool); err != nil {
						t.Fatal(err)
					}
					want.Hidden = unboundedStaticHidden(shared)
					want.Explain = ExplainRunner(runner())

					g, w := reflect.ValueOf(got), reflect.ValueOf(want)
					for f := 0; f < g.NumField(); f++ {
						if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
							t.Errorf("%s over the shared analysis differs from a fresh one:\n got %+v\nwant %+v",
								g.Type().Field(f).Name, g.Field(f).Elem().Interface(), w.Field(f).Elem().Interface())
						}
					}
					for i := range shared.Instance().Launches {
						if !sameAnalysis(shared.LaunchAnalysis(i), freshLaunchAnalysis(shared, i)) {
							t.Errorf("launch %d: shared analysis differs from a fresh AnalyzeLaunch", i)
						}
					}
				})
			}
		}
	}
}

// Sharing one Result across estimators is sound only while none of
// them writes into it: after every Result consumer and every runner
// estimator has read it, the shared analysis still equals a fresh one.
func TestLaunchAnalysisReadOnly(t *testing.T) {
	for _, name := range []string{"CCL", "FLUD", "QUICKSORT"} {
		r := suiteRunner(t, device.K40c(), name, NVBitFI)
		filter := func(op isa.Op) bool { return opInjectable(NVBitFI, op) }
		for i := range r.Instance().Launches {
			a := r.LaunchAnalysis(i)
			w := a.OpWeights(r.GoldenProfiles()[i].PerOpLane)
			a.Estimate(w, filter)
			a.ScalarEstimate(w, filter)
			a.DUEModeEstimate(w, filter)
			a.HiddenEstimate(w)
			a.Explain(w)
			a.Explain(nil)
		}
		if _, err := allStaticViews(r, NVBitFI); err != nil {
			t.Fatal(err)
		}
		for i := range r.Instance().Launches {
			if !sameAnalysis(r.LaunchAnalysis(i), freshLaunchAnalysis(r, i)) {
				t.Fatalf("%s launch %d: a consumer wrote into the shared analysis", name, i)
			}
		}
	}
}

// Concurrent first calls on one runner race to fill the memo: every
// goroutine must see the same Result pointers and the same estimates.
// Kept out of -short so the race-detector tiers run it.
func TestLaunchAnalysisConcurrent(t *testing.T) {
	r := suiteRunner(t, device.K40c(), "CCL", NVBitFI)
	const workers = 8
	n := len(r.Instance().Launches)
	ptrs := make([][]*analysis.Result, workers)
	views := make([]staticViews, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Half the workers enter through an estimator, half through
			// LaunchAnalysis, from opposite ends of the launch list.
			if g%2 == 0 {
				views[g], errs[g] = allStaticViews(r, NVBitFI)
			}
			ptrs[g] = make([]*analysis.Result, n)
			for k := 0; k < n; k++ {
				i := k
				if g%4 < 2 {
					i = n - 1 - k
				}
				ptrs[g][i] = r.LaunchAnalysis(i)
			}
			if g%2 == 1 {
				views[g], errs[g] = allStaticViews(r, NVBitFI)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	for g := 1; g < workers; g++ {
		for i := range ptrs[g] {
			if ptrs[g][i] != ptrs[0][i] {
				t.Fatalf("worker %d launch %d: got a different *Result than worker 0", g, i)
			}
		}
		if !reflect.DeepEqual(views[g], views[0]) {
			t.Fatalf("worker %d: estimates differ from worker 0's", g)
		}
	}
}
