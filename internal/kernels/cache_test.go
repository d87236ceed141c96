package kernels

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
)

func TestRunnerCacheSharingAndEviction(t *testing.T) {
	dev := device.V100()
	fm := MxMBuilder(isa.F32)
	// Generous budget: the second Get must hit.
	cache := NewCache(4 * ImageBudgetBytes)
	r1, err := cache.Get("FMXM", fm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Get("FMXM", fm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cache rebuilt a hot runner")
	}
	hits, misses, _, used, n := cache.Stats()
	if hits != 1 || misses != 1 || n != 1 {
		t.Fatalf("stats after two Gets: hits %d misses %d entries %d", hits, misses, n)
	}
	if used <= 0 || used != int64(r1.MemoryFootprint()) {
		t.Fatalf("cache charges %d bytes, runner footprint %d", used, r1.MemoryFootprint())
	}

	// A budget smaller than one runner: each new key evicts the old,
	// but the in-hand runner stays usable.
	tiny := NewCache(1)
	ra, err := tiny.Get("FMXM", fm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Get("FLAVA", LavaBuilder(isa.F32), dev, asm.O2); err != nil {
		t.Fatal(err)
	}
	_, _, evictions, _, n := tiny.Stats()
	if evictions == 0 || n != 1 {
		t.Fatalf("tiny cache: evictions %d entries %d", evictions, n)
	}
	// Eviction drops only the cache's reference; the in-hand runner
	// still works (golden outcome on a clean replay).
	if got := ra.GoldenProfiles(); len(got) == 0 {
		t.Fatal("evicted runner lost its golden profiles")
	}
}

// countingBuilder wraps a builder and counts its invocations.
func countingBuilder(b Builder, n *atomic.Int32) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		n.Add(1)
		return b(dev, opt)
	}
}

func TestCacheColdKeyBuildsOnce(t *testing.T) {
	var builds atomic.Int32
	build := countingBuilder(MxMBuilder(isa.F32), &builds)
	cache := NewCache(0)
	dev := device.V100()
	const callers = 16
	runners := make([]*Runner, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := cache.Get("FMXM", build, dev, asm.O2)
			if err != nil {
				t.Error(err)
			}
			runners[i] = r
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent Gets on a cold key built %d times, want 1", callers, got)
	}
	for i, r := range runners {
		if r != runners[0] {
			t.Fatalf("caller %d got a different runner", i)
		}
	}
	hits, misses, _, _, _ := cache.Stats()
	if hits+misses != callers || misses != 1 {
		t.Fatalf("hits %d misses %d, want %d lookups with one miss", hits, misses, callers)
	}
}

func TestCacheDoesNotPinFailedBuild(t *testing.T) {
	var calls atomic.Int32
	fm := MxMBuilder(isa.F32)
	flaky := func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return fm(dev, opt)
	}
	cache := NewCache(0)
	dev := device.V100()
	if _, err := cache.Get("FMXM", flaky, dev, asm.O2); err == nil {
		t.Fatal("first build should fail")
	}
	if _, _, _, used, n := cache.Stats(); n != 0 || used != 0 {
		t.Fatalf("failed build left %d entries charging %d bytes", n, used)
	}
	r, err := cache.Get("FMXM", flaky, dev, asm.O2)
	if err != nil {
		t.Fatalf("retry after a failed build: %v", err)
	}
	if r == nil || calls.Load() != 2 {
		t.Fatalf("retry built %d times in total, want 2", calls.Load())
	}
}

func TestCacheBudgetZeroNeverEvicts(t *testing.T) {
	cache := NewCache(0)
	dev := device.V100()
	for _, k := range []struct {
		name  string
		build Builder
		opt   asm.OptLevel
	}{
		{"FMXM", MxMBuilder(isa.F32), asm.O2},
		{"FMXM", MxMBuilder(isa.F32), asm.O1},
		{"FLAVA", LavaBuilder(isa.F32), asm.O2},
	} {
		if _, err := cache.Get(k.name, k.build, dev, k.opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, evictions, _, n := cache.Stats(); evictions != 0 || n != 3 {
		t.Fatalf("budget 0: evictions %d entries %d, want 0 evictions and 3 resident runners", evictions, n)
	}
}
