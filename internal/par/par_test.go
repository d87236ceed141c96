package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// run drives ForEach over n indices and reports how often each index
// ran and the highest number of calls in flight at once.
func run(t *testing.T, n, workers int, fail func(i int) error) (hits []int32, peak int32, err error) {
	t.Helper()
	hits = make([]int32, n)
	var inFlight, high atomic.Int32
	err = ForEach(n, workers, func(i int) error {
		cur := inFlight.Add(1)
		for {
			old := high.Load()
			if cur <= old || high.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond) // let the pool fill up
		atomic.AddInt32(&hits[i], 1)
		inFlight.Add(-1)
		if fail != nil {
			return fail(i)
		}
		return nil
	})
	return hits, high.Load(), err
}

func TestForEachRunsEveryIndexOnceWithinBound(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantMax int }{
		{0, 4, 0},
		{1, 4, 1},
		{100, 1, 1},
		{100, 3, 3},
		{5, 64, 5}, // workers > n: capped at n
		{200, 0, runtime.GOMAXPROCS(0)},
		{200, -1, runtime.GOMAXPROCS(0)},
	} {
		t.Run(fmt.Sprintf("n%d_w%d", tc.n, tc.workers), func(t *testing.T) {
			hits, peak, err := run(t, tc.n, tc.workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
			if int(peak) > tc.wantMax {
				t.Fatalf("%d calls in flight, bound %d", peak, tc.wantMax)
			}
			if tc.n > 0 && peak < 1 {
				t.Fatal("no call ran")
			}
		})
	}
}

func TestForEachReturnsFirstErrorAndFinishes(t *testing.T) {
	boom := errors.New("boom")
	hits, _, err := run(t, 50, 4, func(i int) error {
		if i%7 == 3 {
			return fmt.Errorf("index %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want a wrapped boom", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times after an error elsewhere", i, h)
		}
	}

	// With one worker, indices run in order, so the first error is the
	// lowest failing index.
	_, _, err = run(t, 50, 1, func(i int) error {
		if i >= 10 {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 10" {
		t.Fatalf("serial err = %v, want index 10", err)
	}
}
