package main

import (
	"io"
	"math"
	"sync"
	"testing"
	"time"
)

func TestPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v (ok %v), want 90 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 50 {
		t.Fatalf("p50 of 1..100 = %v (ok %v), want 50", v, ok)
	}
	// p99 of 100 samples has one sample beyond it: fall back to the
	// highest percentile that keeps ten (rank 90, value 90).
	if v, ok := percentile(xs, 0.99); ok || v != 90 {
		t.Fatalf("p99 of 1..100 = %v (ok %v), want fallback 90 and ok=false", v, ok)
	}
	// With eleven samples only the lowest rank keeps ten beyond it; the
	// fallback never drops below the median.
	small := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if v, ok := percentile(small, 0.9); ok || v != 6 {
		t.Fatalf("p90 of 11 samples = %v (ok %v), want median 6", v, ok)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("percentile of nothing = %v, want NaN", v)
	}
	// 1000 samples support a p99 with exactly ten beyond.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, ok := percentile(big, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990", v, ok)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "core.RunDevice", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10,50); a third covers [60,70)
		// and has a child of its own, which must not count twice.
		{ID: 2, Parent: 1, Name: "faultinj.RunWithRunner", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "faultinj.RunWithRunner", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "beam.Run", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 4, Name: "kernels.NewRunner", Start: ms(62), End: ms(66)},
		// A child sticking out of its parent only counts inside it.
		{ID: 6, Parent: 1, Name: "report.render", Start: ms(95), End: ms(120)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond - 5*time.Millisecond,
		2: 30 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 6 * time.Millisecond,
		5: 4 * time.Millisecond,
		6: 25 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	st := newSpanStats(spans)
	if got := st.selfSum("faultinj.RunWithRunner"); got != 60*time.Millisecond {
		t.Errorf("faultinj self sum = %v, want 60ms", got)
	}
	layers := st.layerSelf()
	if len(layers) != 5 || layers[0].layer != "beam" || layers[4].layer != "report" {
		t.Errorf("layers not sorted by name: %v", layers)
	}
}

// TestTracerConcurrent opens and closes spans from several goroutines at
// once, as the study walk's phases and the serve clients do.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "t", "bench.phase")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.call(root, "t", "sim.RunTrialWithFault", func(int) error { return nil })
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := tr.since(0)
	if len(spans) != 801 {
		t.Fatalf("got %d closed spans, want 801", len(spans))
	}
	if n := newSpanStats(spans).count("sim.RunTrialWithFault"); n != 800 {
		t.Fatalf("got %d child spans, want 800", n)
	}
}

func TestZipfCountsAndMixShape(t *testing.T) {
	counts := zipfCounts(180, 12)
	sum := 0
	for k, c := range counts {
		sum += c
		if k > 0 && c > counts[k-1] {
			t.Errorf("count %d (%d) exceeds count %d (%d)", k, c, k-1, counts[k-1])
		}
	}
	if sum != 180 {
		t.Fatalf("zipf counts sum to %d, want 180", sum)
	}
	shape := func(seed uint64) map[string]int {
		m := map[string]int{}
		for _, r := range serveMixFor(seed, false) {
			m[r.req.Code+"/"+r.req.Device+"/"+r.req.Tool]++
		}
		return m
	}
	a, b := shape(1), shape(2)
	if len(a) != 30 {
		t.Errorf("mix covers %d (code, device, tool) triples, want 30", len(a))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("request multiset depends on the seed: %s %d vs %d", k, n, b[k])
		}
	}
	mix := serveMixFor(7, false)
	dups := 0
	for i, r := range mix {
		if r.dupOf < 0 {
			continue
		}
		dups++
		if o := mix[r.dupOf]; o.req != r.req || o.dupOf >= 0 {
			t.Errorf("request %d repeats %d but the requests differ", i, r.dupOf)
		}
	}
	if dups != 12 {
		t.Errorf("mix has %d duplicates, want one per hot pair (12)", dups)
	}
	again := serveMixFor(7, false)
	for i := range mix {
		if mix[i] != again[i] {
			t.Fatalf("mix for one seed differs at %d", i)
		}
	}
}

// TestStaticDigestStable runs the probe-sized static walk twice, once
// traced, and requires the same digest and clean output checks.
func TestStaticDigestStable(t *testing.T) {
	stderr = io.Discard
	_, plain := walkStatic(nil, 3, "", true)
	m, traced := walkStatic(newTracer(), 4, "", true)
	for _, o := range []outcome{plain, traced} {
		if len(o.problems) != 0 || o.failed != 0 {
			t.Fatalf("static probe failed its checks: %v", o.problems)
		}
	}
	if plain.digest == "" || plain.digest != traced.digest {
		t.Fatalf("static digests differ across runs and seeds: %q vs %q", plain.digest, traced.digest)
	}
	for _, name := range []string{"analysis.estimate_ms", "analysis.lint_ms", "kernels.golden_ms_p50", "asm.build_ms_p50"} {
		if v, ok := m[name]; !ok || !(v.Value > 0) {
			t.Errorf("traced static walk reports %s = %v", name, v)
		}
	}
	if got := m["analysis.programs"].Value; got < 2 {
		t.Errorf("analysis.programs = %v, want the probe's programs and micros", got)
	}
}
