package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// probeRuns is how many times each probe repeats; the median is reported.
const probeRuns = 3

// stageProbes are synthetic record streams, each weighted toward one part
// of the engine's cycle loop, so engine cost can be budgeted per stage
// without timing inside the engine.
func stageProbes() map[string]workload.StreamProfile {
	wake := workload.DefaultStreamProfile(0xAE)
	wake.LoadFrac, wake.StoreFrac, wake.BranchFrac = 0.05, 0.03, 0.02
	wake.MulFrac, wake.DivFrac = 0.10, 0.02
	wake.DepWindow = 2 // short dependency chains: wakeup and issue bound

	mem := workload.DefaultStreamProfile(0x3E3)
	mem.LoadFrac, mem.StoreFrac, mem.BranchFrac = 0.45, 0.22, 0.05
	mem.MemRange = 1 << 10 // dense aliasing: LSQ disambiguation and forwarding

	branch := workload.DefaultStreamProfile(0xB7)
	branch.BranchFrac = 0.35
	branch.MispredProb = 0.3 // frequent recoveries: fetch redirect bound
	return map[string]workload.StreamProfile{
		"core.probe.wake_mips":   wake,
		"core.probe.mem_mips":    mem,
		"core.probe.branch_mips": branch,
	}
}

// runStageProbes reports each probe's engine throughput in committed
// instructions per host microsecond (MIPS), the median of probeRuns.
func runStageProbes(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for name, sp := range stageProbes() {
		recs, err := sp.Records(int(instructions))
		if err != nil {
			return nil, err
		}
		var mips []float64
		for i := 0; i < probeRuns; i++ {
			src := trace.NewSliceSource(recs)
			start := time.Now()
			eng, err := core.New(resim.DefaultConfig(), src, sp.StartPC())
			if err != nil {
				return nil, err
			}
			res, err := eng.RunContext(ctx)
			if err != nil {
				return nil, err
			}
			mips = append(mips, float64(res.Committed)/time.Since(start).Seconds()/1e6)
		}
		out[name] = median(mips)
	}
	return out, nil
}

// checkpointProbe times the checkpoint path the service's workers and
// platform use, on the service grid's first point for every profile: run
// to the workers' default checkpoint cadence, capture and encode
// (Engine.Checkpoint plus Encode), decode and restore (DecodeCheckpoint
// plus core.Restore), then finish the run and check it against the
// reference.
func checkpointProbe(ctx context.Context, grid []pointSpec, ref *reference) (encodeMS, restoreMS float64, err error) {
	tc := tracecache.New(tracecache.Config{})
	var enc, rst []float64
	for _, name := range profileNames() {
		p, err := resim.WorkloadByName(name)
		if err != nil {
			return 0, 0, err
		}
		cfg := grid[0].config()
		t, err := tc.Get(ctx, p, cfg.TraceConfig(), instructions)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < probeRuns; i++ {
			part := grid[0].config()
			part.MaxCycles = core.DefaultObserverInterval
			eng, err := core.New(part, t.Source(), t.StartPC())
			if err != nil {
				return 0, 0, err
			}
			if _, err := eng.RunContext(ctx); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			cp, err := eng.Checkpoint()
			if err != nil {
				return 0, 0, err
			}
			data, err := cp.Encode()
			if err != nil {
				return 0, 0, err
			}
			enc = append(enc, ms(time.Since(start)))
			start = time.Now()
			dec, err := core.DecodeCheckpoint(data)
			if err != nil {
				return 0, 0, err
			}
			resumed, err := core.Restore(grid[0].config(), t.Source(), dec)
			if err != nil {
				return 0, 0, err
			}
			rst = append(rst, ms(time.Since(start)))
			res, err := resumed.RunContext(ctx)
			if err != nil {
				return 0, 0, err
			}
			if !ref.check(name, 0, resultDigest(res)) {
				return 0, 0, fmt.Errorf("checkpoint probe: %s resumed from cycle %d differs from the reference", name, cp.Cycles())
			}
		}
	}
	return median(enc), median(rst), nil
}

// seedProbe times Cache.Seed, the worker's install of a shipped trace
// container, over every container in the spill directory.
func seedProbe(spill string, keys map[string]tracecache.Key) (float64, error) {
	var times []float64
	for id, key := range keys {
		data, err := os.ReadFile(filepath.Join(spill, id+".rstc"))
		if err != nil {
			return 0, err
		}
		for i := 0; i < probeRuns; i++ {
			c := tracecache.New(tracecache.Config{})
			start := time.Now()
			if _, err := c.Seed(key, bytes.NewReader(data)); err != nil {
				return 0, err
			}
			times = append(times, ms(time.Since(start)))
		}
	}
	return median(times), nil
}
