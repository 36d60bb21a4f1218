package pool

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunVisitsEveryIndexOnce: at every pool size — inline, bounded,
// and wider than the work — each index runs exactly once.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, par := range []int{-1, 0, 1, 3, n + 5} {
		var hits [n]atomic.Int32
		Run(context.Background(), par, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times, want 1", par, i, got)
			}
		}
	}
	Run(context.Background(), 4, 0, func(int) { t.Fatal("work ran for an empty pool") })
}

// TestRunStopsOnCancel: once ctx is cancelled no further item starts;
// the item that cancelled still finishes.
func TestRunStopsOnCancel(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		Run(ctx, par, 1000, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		// Workers already past their ctx check may each finish one more.
		if got := ran.Load(); got < 10 || got > 10+int32(par) {
			t.Errorf("parallelism %d: %d items ran after cancelling at the 10th", par, got)
		}
	}
}
