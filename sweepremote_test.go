package resim_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	resim "repro"
	"repro/internal/jobd"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// startCluster brings up the job service as cmd/resimd assembles it — a
// coordinator registering n TCP workers (each with its own trace cache,
// standing in for distinct hosts) and a job platform over them — and
// returns its HTTP door's base URL.
func startCluster(t *testing.T, n int) (string, []*tracecache.Cache) {
	t.Helper()
	coord := sweepd.NewCoordinator()
	p, err := jobd.New(jobd.Options{Pool: coord})
	if err != nil {
		t.Fatal(err)
	}
	coord.OnWorkersChanged = p.Kick
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(func() {
		srv.Close()
		p.Close()
		coord.Close()
	})
	wctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	caches := make([]*tracecache.Cache, n)
	for i := range caches {
		caches[i] = tracecache.New(tracecache.Config{})
		go sweepd.Work(wctx, addr, sweepd.WorkerOptions{Traces: caches[i]}) //nolint:errcheck
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", coord.WorkerCount(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return srv.URL, caches
}

// acceptancePoints is a 4-point sweep with exactly 2 distinct trace keys:
// RB size feeds the wrong-path block length (and so the key), LSQ size is
// engine-only.
func acceptancePoints(base resim.Config) []resim.SweepPoint {
	var pts []resim.SweepPoint
	for _, rb := range []int{8, 16} {
		for _, lsq := range []int{4, 8} {
			cfg := base
			cfg.RBSize = rb
			cfg.LSQSize = lsq
			pts = append(pts, resim.SweepPoint{Name: "pt", Config: cfg})
		}
	}
	return pts
}

// TestSweepRemoteMatchesSweep: a 4-point sweep with 2 distinct trace keys
// served through SweepRemote — the HTTP door — against a 2-worker
// loopback TCP cluster produces exactly 2 traces total (asserted via
// tracecache.Stats: the keys share a wrong-path family, so a worker holding
// both groups derives the shorter trace instead of generating it) and
// returns results byte-identical to Session.Sweep on the same points.
func TestSweepRemoteMatchesSweep(t *testing.T) {
	const instrs = 8000
	ctx := context.Background()
	addr, caches := startCluster(t, 2)

	local, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(resim.DefaultConfig())
	want, err := local.Sweep(ctx, "gzip", instrs, pts)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.SweepRemote(ctx, addr, "gzip", instrs, pts)
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("SweepRemote results are not byte-identical to Sweep results\nremote: %.400s\nlocal:  %.400s",
			gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SweepRemote results differ structurally from Sweep results")
	}

	var gens, derivs uint64
	for _, c := range caches {
		gens += c.Stats().Generations
		derivs += c.Stats().Derivations
	}
	if gens+derivs != 2 || gens < 1 {
		t.Fatalf("cluster performed %d trace generations and %d derivations for 2 distinct trace keys, want 2 traces with at least 1 generation", gens, derivs)
	}
}

// TestWithCoordinatorRoutesSweep: a session built WithCoordinator runs its
// plain Sweep calls through the job service's HTTP door transparently.
func TestWithCoordinatorRoutesSweep(t *testing.T) {
	const instrs = 6000
	ctx := context.Background()
	addr, caches := startCluster(t, 1)

	ses, err := resim.New(resim.WithCoordinator(addr))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	res, err := ses.Sweep(ctx, "gzip", instrs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pts) {
		t.Fatalf("got %d results, want %d", len(res), len(pts))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	// Proof the job really ran on the remote worker: its cache produced
	// two distinct keys' traces. They share a wrong-path family and the
	// coordinator dispatches the longer first, so one is generated and the
	// other derived from it.
	if st := caches[0].Stats(); st.Generations != 1 || st.Derivations != 1 {
		t.Fatalf("remote worker performed %d generations and %d derivations, want 1 and 1", st.Generations, st.Derivations)
	}
}

// TestSweepObserverDoneTotal: the local Sweep path reports sweep completion
// through the extended Progress fields — done counts 1..N against a fixed
// total, with exactly one Final.
func TestSweepObserverDoneTotal(t *testing.T) {
	var (
		mu     sync.Mutex
		dones  []int
		totals []int
		finals int
	)
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, p.Done)
		totals = append(totals, p.Total)
		if p.Final {
			finals++
		}
	}), 0))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	if _, err := ses.Sweep(context.Background(), "gzip", 5000, pts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Errorf("done sequence = %v, want [1 2 3 4]", dones)
	}
	for _, tot := range totals {
		if tot != len(pts) {
			t.Errorf("total = %d, want %d", tot, len(pts))
		}
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
}

// TestSweepRemoteForwardsObserver: SweepRemote feeds the session observer
// one callback per streamed result, and the WithTelemetry sink the
// service's snapshots, tagged with point indices, whose windows sum back to
// each point's final result.
func TestSweepRemoteForwardsObserver(t *testing.T) {
	addr, _ := startCluster(t, 2)
	var (
		mu     sync.Mutex
		calls  int
		finals int
		lastD  int
		snaps  = map[int][]resim.IntervalSnapshot{}
	)
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.Done <= lastD {
			// Done strictly increases: one callback per newly completed point.
			// (Guarded here rather than asserting the exact sequence so the
			// failure mode is readable.)
			finals = -1000
		}
		lastD = p.Done
		if p.Final {
			finals++
		}
	}), 0), resim.WithTelemetry(func(s resim.IntervalSnapshot) error {
		mu.Lock()
		defer mu.Unlock()
		snaps[s.Core] = append(snaps[s.Core], s)
		return nil
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Points from the default config: ses.Config() carries the telemetry
	// sink, which cannot cross the wire.
	pts := acceptancePoints(resim.DefaultConfig())
	res, err := ses.SweepRemote(context.Background(), addr, "gzip", 8000, pts)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != len(pts) {
		t.Errorf("observer calls = %d, want one per point (%d)", calls, len(pts))
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1 (and monotonic Done)", finals)
	}
	for i, r := range res {
		var cycles, committed uint64
		for k, s := range snaps[i] {
			if s.Seq != uint64(k) {
				t.Fatalf("point %d: snapshot %d has seq %d (gap or reorder)", i, k, s.Seq)
			}
			cycles += s.EndCycle - s.StartCycle
			committed += s.Counters.Committed
		}
		if cycles != r.Res.Cycles || committed != r.Res.Committed {
			t.Errorf("point %d: %d telemetry windows sum to %d cycles / %d committed, result has %d / %d",
				i, len(snaps[i]), cycles, committed, r.Res.Cycles, r.Res.Committed)
		}
	}
}
