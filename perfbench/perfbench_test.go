package main

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
	if got := minSamples(90); got != 100 {
		t.Errorf("minSamples(90) = %d, want 100", got)
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(99 - i) // 99..1, unsorted on purpose
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples succeeded; it has only 9 beyond it")
	}
	if v, err := percentile(xs, 50); err != nil || v != 50 {
		t.Errorf("p50 of 1..99 = %v, %v; want 50", v, err)
	}
	xs = append(xs, 100)
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples succeeded; it has only 9 beyond it")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestTrimmedMeanDropsOutliers(t *testing.T) {
	// Ten samples: a tenth is cut from each end, so 100 and 0 go.
	xs := []float64{5, 100, 5, 5, 5, 0, 5, 5, 5, 5}
	if got := trimmedMean(xs, 0.1); got != 5 {
		t.Errorf("trimmedMean = %v, want 5", got)
	}
	// Fewer than ten: nothing to cut.
	if got := trimmedMean([]float64{1, 2, 6}, 0.1); got != 3 {
		t.Errorf("trimmedMean(1,2,6) = %v, want 3", got)
	}
}

func TestEndToEndScalesTimingsByHostSlowdown(t *testing.T) {
	var ph phase
	for i := 1; i <= 100; i++ {
		ph.results = append(ph.results, opResult{latency: float64(i) / 1000, first: 0.001, committed: 1e6, ok: true})
	}
	ph.wall = 10
	setup := []float64{0.4, 0.5, 0.6}
	at1, err := endToEnd(ph, setup, 1, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The set-ups and the measured phase ran on a host twice as slow as
	// the reference: rates double, times halve, and what is not a timing
	// stays as measured.
	at2, err := endToEnd(ph, setup, 2, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"sim_mips": 2, "ops_per_s": 2, "op_p50_ms": 0.5, "op_p90_ms": 0.5,
		"first_result_p50_ms": 0.5, "setup_s": 0.5, "ok_ratio": 1} {
		if got := at2.Metrics[name].Value / at1.Metrics[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: slowdown 2 reads %v times slowdown 1, want %v", name, got, want)
		}
	}
	if got := at1.Metrics["sim_mips"].Value; math.Abs(got-10) > 1e-12 {
		t.Errorf("sim_mips at slowdown 1 = %v, want 100 M instructions / 10 s = 10", got)
	}
	// Each slowdown scales its own phase only.
	mixed, err := endToEnd(ph, setup, 2, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.Metrics["setup_s"].Value; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("setup_s at set-up slowdown 2 = %v, want 0.5 / 2", got)
	}
	if got := mixed.Metrics["sim_mips"].Value; math.Abs(got-10) > 1e-12 {
		t.Errorf("sim_mips at measured slowdown 1 = %v, want 10", got)
	}
}

func TestHostProbeRecordsItsTime(t *testing.T) {
	hs := newHostSpeed(explorePause)
	if got := hs.slowdown(0, 0); got != 1 {
		t.Errorf("slowdown before any probe = %v, want 1", got)
	}
	hs.probe()
	d := hs.probe()
	if d <= 0 || len(hs.samples) != 2 || hs.samples[1] != d.Seconds() {
		t.Fatalf("probe took %v, recorded %v", d, hs.samples)
	}
	if got, want := hs.slowdown(1, 2), d.Seconds()/hostNominal.Seconds(); got != want {
		t.Errorf("slowdown of the second probe = %v, want %v", got, want)
	}
}

func TestIdleCoreShare(t *testing.T) {
	for _, tc := range []struct {
		busy, wall float64
		procs      int
		want       float64
	}{
		{busy: 2, wall: 1, procs: 2, want: 0},       // both cores busy all the time
		{busy: 1, wall: 1, procs: 2, want: 0.5},     // one core stranded
		{busy: 0.5, wall: 1, procs: 4, want: 0.875}, // one of four, half the time
		{busy: 2.01, wall: 1, procs: 2, want: 0},    // timer noise never goes negative
		{busy: 1, wall: 0, procs: 2, want: 0},       // no wall time, nothing to share
	} {
		if got := idleCoreShare(tc.busy, tc.wall, tc.procs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("idleCoreShare(%v, %v, %d) = %v, want %v", tc.busy, tc.wall, tc.procs, got, tc.want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 20}, {30, 40}, {35, 38}}
	if got := unionLen(ivs, interval{0, 100}); got != 30 {
		t.Errorf("union = %d, want 30", got)
	}
	if got := unionLen(ivs, interval{8, 32}); got != 14 {
		t.Errorf("clipped union = %d, want 14", got)
	}
	if got := unionLen(nil, interval{0, 100}); got != 0 {
		t.Errorf("empty union = %d, want 0", got)
	}
}

func TestLedgerSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op.sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "sweepd.group", Start: 10, End: 60},
		{ID: 3, Parent: 2, Op: 1, Name: "core.run", Start: 20, End: 40},
		{ID: 4, Parent: 2, Op: 1, Name: "core.run", Start: 30, End: 50}, // runs beside span 3
		{ID: 5, Parent: 1, Op: 1, Name: "funcsim.gen", Start: 70, End: 80},
		// A second operation with no child spans is all residual.
		{ID: 6, Parent: 0, Op: 2, Name: "op.sweep", Start: 200, End: 210},
	}
	lg := buildLedger(spans, nil)
	want := map[string]int64{"sweepd": 50 - 30, "core": 20 + 20, "funcsim": 10}
	for l, v := range want {
		if lg.Self[l] != v {
			t.Errorf("self[%s] = %d, want %d", l, lg.Self[l], v)
		}
	}
	if lg.Busy["core"] != 40 {
		t.Errorf("busy[core] = %d, want 40", lg.Busy["core"])
	}
	if lg.Ops != 2 || lg.Wall != 110 {
		t.Errorf("ops, wall = %d, %d; want 2, 110", lg.Ops, lg.Wall)
	}
	// Op 1: 100 − (50 under the group + 10 under generation); op 2: 10.
	if lg.Residual != 40+10 {
		t.Errorf("residual = %d, want 50", lg.Residual)
	}
}

func TestLedgerChargesReplayedOperationsTheirOwnWallTime(t *testing.T) {
	// Two replayed operations, each with one child covering 60 of its
	// root's 100: the first really took 150, so 90 is residual; the
	// second really took 50, 10 less than its replay covered, which
	// offsets the first. Slower replays never make the total negative.
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op.sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "core.run", Start: 20, End: 80},
		{ID: 3, Parent: 0, Op: 2, Name: "op.sweep", Start: 200, End: 300},
		{ID: 4, Parent: 3, Op: 2, Name: "core.run", Start: 220, End: 280},
	}
	lg := buildLedger(spans, map[int]int64{1: 150, 2: 50})
	if lg.Wall != 200 || lg.Residual != 80 {
		t.Errorf("wall, residual = %d, %d; want 200, 80", lg.Wall, lg.Residual)
	}
	if lg := buildLedger(spans, map[int]int64{1: 50, 2: 50}); lg.Residual != 0 {
		t.Errorf("residual of replays slower than their operations = %d, want 0", lg.Residual)
	}
	if lg.Self["core"] != 120 {
		t.Errorf("self[core] = %d, want 120", lg.Self["core"])
	}
}

func TestTracerRecordsParentsAndSkipsOpenSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(1, 0, "op.sweep")
	child := tr.begin(1, root, "core.run")
	tr.begin(1, root, "core.run") // never closed
	tr.end(child)
	tr.end(root)
	got := tr.all()
	if len(got) != 2 || got[1].Parent != root || got[1].layer() != "core" {
		t.Fatalf("spans = %+v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(1, 0, "op.sweep"); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, file []metricDef, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, code %v", kind, i, file[i], code[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEndMetrics)
	check("per_layer", layers, perLayerMetrics)
}

// smallBudget lowers the per-point instruction budget for the duration of
// a test, so smoke runs take seconds.
func smallBudget(t *testing.T) {
	old := instructions
	instructions = 20_000
	t.Cleanup(func() { instructions = old })
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	smallBudget(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 12345, seconds: 0, trace: traced, workdir: t.TempDir()}
			res, report, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, report)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d of %d\n%s", w.name, traced,
					res.Correct, res.Failed, res.Attempted, report)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, %v", w.name, traced, m.name, got, ok)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
		}
	}
}

func TestMismatchedResultFailsTheOperation(t *testing.T) {
	smallBudget(t)
	ctx := context.Background()
	e, err := setupExplore(ctx, warmGrid(), true)
	if err != nil {
		t.Fatal(err)
	}
	o := makeOps(1, 1, len(e.grid), []int{6})[0]
	for _, tr := range []*tracer{nil, newTracer()} {
		if r := e.run(ctx, 0, o, 1, tr); r.failed() {
			t.Fatalf("traced=%v: operation failed against a correct reference: %+v", tr != nil, r)
		}
	}
	k := refKey{o.profile, o.points[0]}
	e.ref.digest[k] += " "
	for _, tr := range []*tracer{nil, newTracer()} {
		if r := e.run(ctx, 0, o, 1, tr); !r.failed() {
			t.Errorf("traced=%v: a result differing from the reference passed", tr != nil)
		}
	}
}

func TestOpsDeriveFromSeedOnly(t *testing.T) {
	a := makeOps(42, 40, 6, []int{1, 2, 3, 4})
	b := makeOps(42, 40, 6, []int{1, 2, 3, 4})
	c := makeOps(43, 40, 6, []int{1, 2, 3, 4})
	same := func(x, y []op) bool {
		for i := range x {
			if x[i].profile != y[i].profile || len(x[i].points) != len(y[i].points) {
				return false
			}
			for j := range x[i].points {
				if x[i].points[j] != y[i].points[j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different operations")
	}
	if same(a, c) {
		t.Error("different seeds gave the same operations")
	}
	// Every block of five operations covers each profile once; every
	// block of four covers each job size once.
	counts := map[string]int{}
	sizes := map[int]int{}
	for _, o := range a {
		counts[o.profile]++
		sizes[len(o.points)]++
	}
	for p, n := range counts {
		if n != 8 {
			t.Errorf("profile %s: %d of 40 operations, want 8", p, n)
		}
	}
	for s, n := range sizes {
		if n != 10 {
			t.Errorf("size %d: %d of 40 operations, want 10", s, n)
		}
	}
}
