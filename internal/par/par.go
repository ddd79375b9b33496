// Package par is the repository's fan-out substrate: a small bounded
// worker pool for data-parallel loops whose results must not depend on the
// degree of parallelism.
//
// The central discipline is that work is split into *fixed* units — shards
// of an index range, or individual jobs — whose boundaries depend only on
// the problem size, never on the worker count. Each unit writes its output
// into a slot owned by its unit index, and callers combine the slots in
// unit order. Because floating-point reduction order is then a function of
// the problem alone, a caller that follows this discipline gets bit-identical
// results whether the loop ran on one goroutine or sixteen. The ABM
// transition sweep (internal/abm) and the experiment fan-outs
// (internal/experiments) both build on this property; the determinism
// regression tests assert it end-to-end.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// active counts fan-out worker goroutines currently executing shards,
// process-wide. It feeds rumord's worker-utilization gauge; inline (single
// worker) runs are counted too, so a serial sweep still registers as one
// busy worker.
var active atomic.Int64

// Active reports the number of fan-out workers currently executing shards
// across all concurrent ForEachShard/Map calls in the process.
func Active() int { return int(active.Load()) }

// Default resolves a worker-count setting: values above zero are returned
// unchanged, anything else selects runtime.GOMAXPROCS(0) — the number of
// OS threads the scheduler will actually run, not the machine's core count.
// Respecting GOMAXPROCS keeps fan-outs honest under `go test -cpu 1,4,8`
// (the multi-core bench rig sweeps exactly this knob) and under deployments
// that cap the process below the machine size. A resolved value of 1 means
// "run inline on the calling goroutine".
func Default(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// NumShards returns the number of fixed-size shards covering [0, n).
func NumShards(n, shardSize int) int {
	if n <= 0 || shardSize <= 0 {
		return 0
	}
	return (n + shardSize - 1) / shardSize
}

// ForEachShard partitions [0, n) into ⌈n/shardSize⌉ contiguous shards and
// calls fn(shard, lo, hi) once per shard, running up to workers calls
// concurrently. Shard boundaries depend only on n and shardSize — never on
// workers — so per-shard partial results combined in shard order are
// bit-identical at any parallelism.
//
// fn must only write to state owned by its shard. If any call returns an
// error, remaining shards may be skipped and the error with the lowest
// shard index among the completed calls is returned. With workers ≤ 1 the
// shards run inline in order and the first error returns immediately.
func ForEachShard(workers, n, shardSize int, fn func(shard, lo, hi int) error) error {
	shards := NumShards(n, shardSize)
	if shards == 0 {
		return nil
	}
	if workers = Default(workers); workers > shards {
		workers = shards
	}
	if workers <= 1 {
		active.Add(1)
		defer active.Add(-1)
		for s := 0; s < shards; s++ {
			lo := s * shardSize
			hi := min(lo+shardSize, n)
			if err := fn(s, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64 // next shard to claim
		failed atomic.Bool  // stops dispatch after the first error
		errs   = make([]error, shards)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			active.Add(1)
			defer active.Add(-1)
			for !failed.Load() {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				lo := s * shardSize
				hi := min(lo+shardSize, n)
				if err := fn(s, lo, hi); err != nil {
					errs[s] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, jobs) on up to workers goroutines and
// returns the results indexed by job, so callers consume them in a
// deterministic order regardless of completion order. On error the
// semantics of ForEachShard apply and the partial results are discarded.
func Map[T any](workers, jobs int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, jobs)
	err := ForEachShard(workers, jobs, 1, func(_, i, _ int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
