package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDefault(t *testing.T) {
	if got := Default(4); got != 4 {
		t.Errorf("Default(4) = %d", got)
	}
	if got := Default(0); got < 1 {
		t.Errorf("Default(0) = %d, want ≥ 1", got)
	}
	if got := Default(-3); got < 1 {
		t.Errorf("Default(-3) = %d, want ≥ 1", got)
	}
}

func TestNumShards(t *testing.T) {
	cases := []struct{ n, size, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 7, 15}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := NumShards(c.n, c.size); got != c.want {
			t.Errorf("NumShards(%d, %d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

// TestForEachShardCoverage: every index is visited exactly once and shard
// boundaries are identical for any worker count.
func TestForEachShardCoverage(t *testing.T) {
	const n, size = 1003, 64
	for _, workers := range []int{1, 2, 8, 100} {
		visits := make([]int32, n)
		err := ForEachShard(workers, n, size, func(shard, lo, hi int) error {
			if lo != shard*size {
				return fmt.Errorf("shard %d: lo = %d", shard, lo)
			}
			if want := min(lo+size, n); hi != want {
				return fmt.Errorf("shard %d: hi = %d, want %d", shard, hi, want)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForEachShardError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEachShard(workers, 100, 10, func(shard, lo, hi int) error {
			if shard == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
	}
}

func TestForEachShardEmpty(t *testing.T) {
	called := false
	err := ForEachShard(4, 0, 10, func(shard, lo, hi int) error {
		called = true
		return nil
	})
	if err != nil || called {
		t.Errorf("empty range: err=%v called=%v", err, called)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	sentinel := errors.New("job failed")
	out, err := Map(4, 20, func(i int) (int, error) {
		if i == 7 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if out != nil {
		t.Errorf("partial results not discarded: %v", out)
	}
}

func TestActive(t *testing.T) {
	if got := Active(); got != 0 {
		t.Fatalf("Active() = %d at rest, want 0", got)
	}
	var peak atomic.Int64
	err := ForEachShard(4, 16, 1, func(_, _, _ int) error {
		if a := int64(Active()); a > peak.Load() {
			peak.Store(a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > 4 {
		t.Errorf("peak Active() = %d, want within [1, 4]", p)
	}
	// Inline (serial) execution still registers as one busy worker.
	var inline int
	if err := ForEachShard(1, 2, 1, func(_, _, _ int) error { inline = Active(); return nil }); err != nil {
		t.Fatal(err)
	}
	if inline != 1 {
		t.Errorf("inline Active() = %d, want 1", inline)
	}
	if got := Active(); got != 0 {
		t.Errorf("Active() = %d after runs, want 0", got)
	}
}
