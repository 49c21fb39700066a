package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// exploreEnv drives Session.Sweep. With warm set, every sweep shares one
// trace cache warmed during set-up and all of a sweep's points share one
// trace key; otherwise each sweep gets a fresh cache and every point its
// own key, so trace generation is part of every sweep.
type exploreEnv struct {
	warm  bool
	grid  []pointSpec
	ref   *reference
	cache *tracecache.Cache // warm only

	mu sync.Mutex
	ls exploreLayers
}

// exploreLayers accumulates the traced run's per-layer counts.
type exploreLayers struct {
	ops, groups              int
	genRecords, genWrongPath uint64
	hits, gens, seeds        uint64
	residentBytes            float64 // summed over sweeps (cold) or final (warm)
}

func setupExplore(ctx context.Context, grid []pointSpec, warm bool) (*exploreEnv, error) {
	e := &exploreEnv{warm: warm, grid: grid}
	ref, err := computeReference(ctx, e.grid, nil)
	if err != nil {
		return nil, err
	}
	e.ref = ref
	if warm {
		e.cache = tracecache.New(tracecache.Config{})
		for _, name := range profileNames() {
			key, err := traceKey(name, e.grid[0].config())
			if err != nil {
				return nil, err
			}
			if _, err := e.cache.Get(ctx, key.Profile, key.TC, key.Limit); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

func (e *exploreEnv) clients() int { return 1 }
func (e *exploreEnv) close()       {}

func (e *exploreEnv) beginTrace(context.Context) error { return nil }

// sweepCache is the trace cache one sweep runs on.
func (e *exploreEnv) sweepCache() *tracecache.Cache {
	if e.warm {
		return e.cache
	}
	return tracecache.New(tracecache.Config{})
}

func (e *exploreEnv) run(ctx context.Context, _ int, o op, opID int, tr *tracer) opResult {
	if tr != nil {
		return e.replay(ctx, o, opID, tr)
	}
	var first time.Time
	var once sync.Once
	sess, err := resim.New(resim.WithTraceCache(e.sweepCache()),
		resim.WithObserver(resim.ObserverFunc(func(resim.Progress) {
			once.Do(func() { first = time.Now() })
		}), 0))
	if err != nil {
		return opResult{err: err}
	}
	pts := sweepPoints(e.grid, o)
	start := time.Now()
	res, err := sess.Sweep(ctx, o.profile, instructions, pts)
	end := time.Now()
	if err != nil {
		return opResult{err: err}
	}
	r := opResult{latency: end.Sub(start).Seconds(), first: first.Sub(start).Seconds(), ok: len(res) == len(pts)}
	for i, sr := range res {
		r.committed += sr.Res.Committed
		r.cycles += sr.Res.Cycles
		if sr.Err != nil || !e.ref.check(o.profile, o.points[i], resultDigest(sr.Res)) {
			r.ok = false
		}
	}
	return r
}

// replay is the traced form of a sweep. Session.Sweep has no hooks, so the
// traced run makes the calls Session.Sweep makes, through the layers'
// public functions, with spans around each: the points are grouped by
// sweepd.Job.Groups, the grouping Session.Sweep schedules by, up to
// GOMAXPROCS groups run at once, each fetching its trace with
// tracecache.Cache.Get (a miss is trace generation, funcsim's layer) and
// running its points through core.New and Engine.RunContext, up to
// GOMAXPROCS at once. The replay's wall time is not the sweep's: the
// ledger charges each operation the untraced Session.Sweep call's wall
// time, so what the replay leaves out of Session.Sweep shows as residual.
func (e *exploreEnv) replay(ctx context.Context, o op, opID int, tr *tracer) opResult {
	procs := runtime.GOMAXPROCS(0)
	cache := e.sweepCache()
	before := cache.Stats()
	root := tr.begin(opID, 0, "op.sweep")
	start := time.Now()

	plan := tr.begin(opID, root, "sweepd.plan")
	pts := sweepPoints(e.grid, o)
	p, err := resim.WorkloadByName(o.profile)
	if err != nil {
		return opResult{err: err}
	}
	groups := (&sweepd.Job{Profile: p, Instructions: instructions, Points: pts}).Groups()
	tr.end(plan)

	var (
		mu       sync.Mutex
		firstErr error
		first    time.Time
		results  = make([]resim.Result, len(pts))
		genRecs  uint64
		genWrong uint64
		wg       sync.WaitGroup
		groupSem = make(chan struct{}, min(len(groups), procs))
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, g := range groups {
		wg.Add(1)
		groupSem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-groupSem }()
			gs := tr.begin(opID, root, "sweepd.group")
			defer tr.end(gs)
			// Warm sweeps find every key warmed during set-up; cold
			// sweeps start from an empty cache, so each key misses.
			name := "funcsim.gen"
			if e.warm {
				name = "tracecache.get"
			}
			s := tr.begin(opID, gs, name)
			t, err := cache.Get(ctx, g.Key.Profile, g.Key.TC, g.Key.Limit)
			tr.end(s)
			if err != nil {
				fail(err)
				return
			}
			if !e.warm {
				mu.Lock()
				genRecs += uint64(t.Records())
				genWrong += t.WrongPath()
				mu.Unlock()
			}
			var pwg sync.WaitGroup
			pointSem := make(chan struct{}, procs)
			for _, i := range g.Indices {
				pwg.Add(1)
				pointSem <- struct{}{}
				go func() {
					defer pwg.Done()
					defer func() { <-pointSem }()
					s := tr.begin(opID, gs, "core.run")
					eng, err := core.New(pts[i].Config, t.Source(), t.StartPC())
					if err != nil {
						tr.end(s)
						fail(err)
						return
					}
					res, err := eng.RunContext(ctx)
					tr.end(s)
					if err != nil {
						fail(err)
						return
					}
					mu.Lock()
					results[i] = res
					if first.IsZero() {
						first = time.Now()
					}
					mu.Unlock()
				}()
			}
			pwg.Wait()
		}()
	}
	wg.Wait()
	end := time.Now()
	tr.end(root)
	if firstErr != nil {
		return opResult{err: firstErr}
	}
	after := cache.Stats()

	r := opResult{latency: end.Sub(start).Seconds(), first: first.Sub(start).Seconds(), ok: true}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ls.ops++
	e.ls.groups += len(groups)
	e.ls.genRecords += genRecs
	e.ls.genWrongPath += genWrong
	e.ls.hits += after.Hits - before.Hits
	e.ls.gens += after.Generations - before.Generations
	e.ls.seeds += after.Seeds - before.Seeds
	if e.warm {
		e.ls.residentBytes = float64(after.Resident)
	} else {
		e.ls.residentBytes += float64(after.Resident)
	}
	for i, res := range results {
		r.committed += res.Committed
		r.cycles += res.Cycles
		if !e.ref.check(o.profile, o.points[i], resultDigest(res)) {
			r.ok = false
		}
	}
	return r
}

func (e *exploreEnv) layers(_ context.Context, lg ledger) (map[string]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ls := e.ls
	m := map[string]float64{}
	runS := float64(lg.Busy["core"]) / 1e9
	genS := float64(lg.Busy["funcsim"]) / 1e9
	m["core.run_s"] = runS
	m["funcsim.gen_s"] = genS
	m["funcsim.records"] = float64(ls.genRecords)
	m["funcsim.gen_mips"] = share(float64(ls.genRecords-ls.genWrongPath), genS) / 1e6
	m["funcsim.wrongpath_share"] = share(float64(ls.genWrongPath), float64(ls.genRecords))
	m["tracecache.hits"] = float64(ls.hits)
	m["tracecache.generations"] = float64(ls.gens)
	m["tracecache.seeds"] = float64(ls.seeds)
	m["tracecache.hit_ratio"] = share(float64(ls.hits), float64(ls.hits+ls.gens+ls.seeds))
	resident := ls.residentBytes
	if !e.warm {
		resident = share(resident, float64(ls.ops))
	}
	m["tracecache.resident_mb"] = resident / (1 << 20)
	m["sweepd.groups_per_sweep"] = share(float64(ls.groups), float64(ls.ops))
	// lg.Wall is the untraced Session.Sweep calls' wall time; the busy
	// time is the replay's.
	m["sweepd.idle_core_share"] = idleCoreShare(runS+genS, float64(lg.Wall)/1e9, runtime.GOMAXPROCS(0))
	return m, nil
}
