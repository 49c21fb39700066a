package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// refKey names one (profile, grid point) pair.
type refKey struct {
	profile string
	point   int
}

// reference holds, per (profile, grid point), the digest of the result a
// direct core run over the same trace produces, and that run's engine
// time. It is computed before the timed phase and never timed itself.
type reference struct {
	digest  map[refKey]string
	engineS map[refKey]float64
}

// resultDigest is the canonical form results are compared in: the wire
// encoding of every counter, cache statistic and occupancy. Two results
// are equal exactly when their digests are.
func resultDigest(r resim.Result) string {
	return wireDigest(sweepd.WireRunResultOf(r))
}

func wireDigest(w *sweepd.WireRunResult) string {
	b, err := json.Marshal(w)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// computeReference runs every (profile, point) pair of grid through
// core.New and Engine.RunContext over a trace from a private cache, one
// profile at a time so that only one profile's traces are resident. When
// export is non-nil it receives every distinct trace once, before the
// profile's cache is dropped.
func computeReference(ctx context.Context, grid []pointSpec, export func(*tracecache.Trace) error) (*reference, error) {
	ref := &reference{digest: map[refKey]string{}, engineS: map[refKey]float64{}}
	for _, name := range profileNames() {
		tc := tracecache.New(tracecache.Config{})
		var (
			mu       sync.Mutex
			firstErr error
			wg       sync.WaitGroup
			next     = make(chan int)
		)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					d, s, err := referenceRun(ctx, tc, name, grid[i].config())
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("reference %s/%s: %w", name, grid[i].name, err)
					}
					ref.digest[refKey{name, i}], ref.engineS[refKey{name, i}] = d, s
					mu.Unlock()
				}
			}()
		}
		for i := range grid {
			next <- i
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if export == nil {
			continue
		}
		seen := map[string]bool{}
		for i := range grid {
			key, err := traceKey(name, grid[i].config())
			if err != nil {
				return nil, err
			}
			if seen[key.ID()] {
				continue
			}
			seen[key.ID()] = true
			t, err := tc.Get(ctx, key.Profile, key.TC, key.Limit)
			if err != nil {
				return nil, err
			}
			if err := export(t); err != nil {
				return nil, err
			}
		}
	}
	return ref, nil
}

func referenceRun(ctx context.Context, tc *tracecache.Cache, profile string, cfg resim.Config) (string, float64, error) {
	p, err := resim.WorkloadByName(profile)
	if err != nil {
		return "", 0, err
	}
	tr, err := tc.Get(ctx, p, cfg.TraceConfig(), instructions)
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	eng, err := core.New(cfg, tr.Source(), tr.StartPC())
	if err != nil {
		return "", 0, err
	}
	res, err := eng.RunContext(ctx)
	if err != nil {
		return "", 0, err
	}
	return resultDigest(res), time.Since(start).Seconds(), nil
}

// check reports whether a result for (profile, point) matches the
// reference.
func (r *reference) check(profile string, point int, digest string) bool {
	want, ok := r.digest[refKey{profile, point}]
	return ok && want == digest
}
