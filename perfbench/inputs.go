package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// instructions is the per-point budget: the default -n of resim-bench.
// Only the package's smoke tests lower it.
var instructions uint64 = 200_000

// pointSpec is one design point. Its configuration is rebuilt for every
// use because configurations with L1 caches carry stateful cache models.
type pointSpec struct {
	name string
	sess *resim.Session
}

func (p pointSpec) config() resim.Config { return p.sess.Config() }

func spec(name string, opts ...resim.Option) pointSpec {
	s, err := resim.New(opts...)
	if err != nil {
		panic(fmt.Sprintf("perfbench: point %s: %v", name, err))
	}
	return pointSpec{name: name, sess: s}
}

func predictor(apply func(*resim.PredictorConfig)) resim.Option {
	pc := resim.DefaultConfig().Predictor
	apply(&pc)
	return resim.WithPredictor(pc)
}

// warmGrid changes only parameters outside Config.TraceConfig, so all its
// points share the default configuration's trace key.
func warmGrid() []pointSpec {
	l1 := resim.CacheConfig{SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20}
	return []pointSpec{
		spec("width=2", resim.WithWidth(2)),
		spec("width=8", resim.WithWidth(8)),
		spec("lsq=4", resim.WithLSQSize(4)),
		spec("lsq=32", resim.WithLSQSize(32)),
		spec("ports=1/1", resim.WithMemoryPorts(1, 1)),
		spec("l1=16k2w", resim.WithL1Caches(l1)),
	}
}

// coldGrid changes the reorder buffer, fetch queue and predictor geometry:
// each point has its own wrong-path length or predictor, so its own trace
// key.
func coldGrid() []pointSpec {
	return []pointSpec{
		spec("rb=32", resim.WithRBSize(32)),
		spec("rb=64", resim.WithRBSize(64)),
		spec("ifq=16", resim.WithIFQSize(16)),
		spec("rb=32/ifq=8", resim.WithRBSize(32), resim.WithIFQSize(8)),
		spec("pht=1024", predictor(func(p *resim.PredictorConfig) { p.PHTSize = 1024 })),
		spec("btb=128", predictor(func(p *resim.PredictorConfig) { p.BTBEntries = 128 })),
	}
}

// serviceGrid mixes three points sharing the default trace key with three
// points of their own keys. Every point can cross the wire.
func serviceGrid() []pointSpec {
	return []pointSpec{
		spec("base"),
		spec("width=2", resim.WithWidth(2)),
		spec("lsq=32", resim.WithLSQSize(32)),
		spec("rb=32", resim.WithRBSize(32)),
		spec("ifq=16", resim.WithIFQSize(16)),
		spec("pht=1024", predictor(func(p *resim.PredictorConfig) { p.PHTSize = 1024 })),
	}
}

// op is one sweep or job: a profile and the grid points it simulates, in
// the order they are submitted.
type op struct {
	profile string
	points  []int // indices into the workload's grid
}

// makeOps derives the operation sequence from the seed. Profiles come in
// seeded permutations of all five, so every block of five operations
// covers each profile once; sizes (jobs of 1-4 points) likewise cycle
// through seeded permutations. The seed changes order and mix, never the
// totals a long run averages over.
func makeOps(seed int64, n int, gridLen int, sizes []int) []op {
	rng := rand.New(rand.NewSource(seed))
	names := profileNames()
	var ops []op
	var profOrder, sizeOrder []int
	for i := 0; i < n; i++ {
		if i%len(names) == 0 {
			profOrder = rng.Perm(len(names))
		}
		if i%len(sizes) == 0 {
			sizeOrder = rng.Perm(len(sizes))
		}
		k := sizes[sizeOrder[i%len(sizes)]]
		ops = append(ops, op{profile: names[profOrder[i%len(names)]], points: rng.Perm(gridLen)[:k]})
	}
	return ops
}

func profileNames() []string {
	var names []string
	for _, p := range resim.Workloads() {
		names = append(names, p.Name)
	}
	return names
}

// sweepPoints materializes an operation's points with fresh configurations.
func sweepPoints(grid []pointSpec, o op) []resim.SweepPoint {
	pts := make([]resim.SweepPoint, len(o.points))
	for i, gi := range o.points {
		pts[i] = resim.SweepPoint{Name: grid[gi].name, Config: grid[gi].config()}
	}
	return pts
}

// wirePoints is sweepPoints in the job API's wire form.
func wirePoints(grid []pointSpec, o op) ([]sweepd.WirePoint, error) {
	pts := make([]sweepd.WirePoint, len(o.points))
	for i, gi := range o.points {
		cs, err := sweepd.SpecOf(grid[gi].config())
		if err != nil {
			return nil, err
		}
		pts[i] = sweepd.WirePoint{Index: i, Name: grid[gi].name, Config: cs}
	}
	return pts, nil
}

// traceKey is the trace-cache key a point of profile runs on.
func traceKey(profile string, cfg resim.Config) (tracecache.Key, error) {
	p, err := resim.WorkloadByName(profile)
	if err != nil {
		return tracecache.Key{}, err
	}
	return tracecache.KeyFor(p, cfg.TraceConfig(), instructions), nil
}
