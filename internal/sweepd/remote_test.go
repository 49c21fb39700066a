package sweepd_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jobd"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// door is the job service as cmd/resimd assembles it: a coordinator whose
// TCP port registers workers, and a job platform scheduling over them
// behind its HTTP door.
type door struct {
	coord *sweepd.Coordinator
	p     *jobd.Platform
	cli   *jobd.Client
	addr  string // the coordinator's TCP address, for workers
}

// serveDoor starts coord (configured, not yet serving) and a platform
// built from opts over it, and serves the platform's HTTP door on a
// localhost test server.
func serveDoor(t *testing.T, coord *sweepd.Coordinator, opts jobd.Options) *door {
	t.Helper()
	opts.Pool = coord
	p, err := jobd.New(opts)
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
	return &door{coord: coord, p: p, cli: &jobd.Client{Server: srv.URL}, addr: addr}
}

// cluster spins up a job service and n workers on real localhost TCP,
// returning the service and the per-worker caches.
func cluster(t *testing.T, n int, coordTraces *tracecache.Cache) (*door, []*tracecache.Cache) {
	t.Helper()
	coord := sweepd.NewCoordinator()
	coord.Traces = coordTraces
	d := serveDoor(t, coord, jobd.Options{})
	return d, d.workers(t, n)
}

// workers registers n TCP workers, each with its own trace cache (standing
// in for distinct hosts), and returns the caches.
func (d *door) workers(t *testing.T, n int) []*tracecache.Cache {
	t.Helper()
	wctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	caches := make([]*tracecache.Cache, n)
	for i := range caches {
		caches[i] = tracecache.New(tracecache.Config{})
		go sweepd.Work(wctx, d.addr, sweepd.WorkerOptions{ //nolint:errcheck
			Name:   "w" + itoa(i+1),
			Traces: caches[i],
		})
	}
	waitWorkers(t, d.coord, n)
	return caches
}

// sweepHTTP runs job through the HTTP door (jobd.Client.Sweep, what
// Session.SweepRemote calls). A service job whose workers are all gone
// waits in the queue for new ones, so the wait is bounded: a test whose
// cluster died fails instead of hanging.
func sweepHTTP(ctx context.Context, cli *jobd.Client, job *sweepd.Job, emit func(sweepd.PointResult, int, int)) ([]sweep.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	return cli.Sweep(ctx, job, emit)
}

// TestRemoteEndToEnd is the service's acceptance shape at the sweepd level:
// a 4-point / 2-key job through the HTTP door over a real TCP coordinator
// and two workers returns results byte-identical to the local path, with
// exactly 2 traces produced across the cluster (the keys share a wrong-path
// family, so a worker that holds both groups derives one of them).
func TestRemoteEndToEnd(t *testing.T) {
	d, caches := cluster(t, 2, nil)
	job := testJob(t)
	want := reference(t, job)

	got, err := sweepHTTP(context.Background(), d.cli, job, nil)
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
		t.Fatalf("remote results are not byte-identical to local results\nremote: %.300s\nlocal:  %.300s",
			gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote results differ structurally from local results")
	}
	var gens, derivs uint64
	for _, c := range caches {
		gens += c.Stats().Generations
		derivs += c.Stats().Derivations
	}
	if gens+derivs != 2 || gens < 1 {
		t.Fatalf("cluster performed %d trace generations and %d derivations for 2 distinct keys, want 2 traces with at least 1 generation", gens, derivs)
	}
}

// TestRemoteProgressForwarded: the client sees one callback per streamed
// point with running done/total counters and exactly one final one.
func TestRemoteProgressForwarded(t *testing.T) {
	d, _ := cluster(t, 2, nil)
	job := testJob(t)
	type ev struct{ done, total int }
	ch := make(chan ev, len(job.Points))
	finals := 0
	emit := func(_ sweepd.PointResult, done, total int) {
		ch <- ev{done, total}
		if done == total {
			finals++
		}
	}
	if _, err := sweepHTTP(context.Background(), d.cli, job, emit); err != nil {
		t.Fatal(err)
	}
	close(ch)
	var dones []int
	for e := range ch {
		if e.total != len(job.Points) {
			t.Errorf("total = %d, want %d", e.total, len(job.Points))
		}
		dones = append(dones, e.done)
	}
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Errorf("done sequence = %v, want [1 2 3 4]", dones)
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
}

// TestRemoteTraceShipping: a coordinator whose cache already holds a
// group's trace ships the container with the assignment, so the worker
// seeds instead of generating.
func TestRemoteTraceShipping(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	warm := tracecache.New(tracecache.Config{})
	cfg := core.DefaultConfig()
	if _, err := warm.Get(context.Background(), p, cfg.TraceConfig(), testInstrs); err != nil {
		t.Fatal(err)
	}

	d, caches := cluster(t, 1, warm)
	job := &sweepd.Job{Profile: p, Instructions: testInstrs, Points: []sweep.Point{
		{Name: "a", Config: cfg}, {Name: "b", Config: cfg},
	}}
	got, err := sweepHTTP(context.Background(), d.cli, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, job)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shipped-trace results differ from locally generated ones")
	}
	st := caches[0].Stats()
	if st.Generations != 0 || st.Seeds != 1 {
		t.Fatalf("worker stats = %+v; want 0 generations and 1 seed (trace was shipped)", st)
	}
}

// TestRemoteNoWorkers: a job submitted while no worker is registered
// queues at the door instead of failing, and completes correctly once a
// worker registers.
func TestRemoteNoWorkers(t *testing.T) {
	d := serveDoor(t, sweepd.NewCoordinator(), jobd.Options{})
	job := testJob(t)
	want := reference(t, job)
	wj, err := sweepd.WireJobOf(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := d.cli.Submit(ctx, jobd.SubmitRequest{Profile: &job.Profile,
		Instructions: job.Instructions, Points: wj.Points})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobd.StateQueued {
		t.Fatalf("job state = %s with no workers, want queued", st.State)
	}
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	go sweepd.Work(wctx, d.addr, sweepd.WorkerOptions{Name: "late"}) //nolint:errcheck
	got, err := d.cli.Collect(ctx, st.ID, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results from a late-registered worker differ from the reference")
	}
}

// TestCoordinatorRefusesClientRole: the coordinator's TCP port serves
// workers only. A peer whose hello claims the client role is refused at
// the handshake and its connection closed; it never joins the pool.
func TestCoordinatorRefusesClientRole(t *testing.T) {
	refused := make(chan string, 1)
	coord := sweepd.NewCoordinator()
	coord.Logf = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "sweepd.handshake_failed") {
			refused <- line
		}
	}
	d := serveDoor(t, coord, jobd.Options{})
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck

	// The coordinator speaks first; answer its hello with the client role
	// at the same protocol version, framed as the wire frames it: a 4-byte
	// big-endian length, then the JSON envelope.
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	var theirs sweepd.Message
	if err := json.Unmarshal(payload, &theirs); err != nil || theirs.Hello == nil {
		t.Fatalf("coordinator's first frame is not a hello: %s (%v)", payload, err)
	}
	ours, err := json.Marshal(sweepd.Message{Type: "hello",
		Hello: &sweepd.Hello{Proto: theirs.Hello.Proto, Role: "client"}})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(prefix[:], uint32(len(ours)))
	if _, err := conn.Write(append(prefix[:], ours...)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("read after a client hello = %d bytes, %v; want the coordinator to close the connection", n, err)
	}
	select {
	case line := <-refused:
		if !strings.Contains(line, `unexpected peer role \"client\"`) {
			t.Errorf("refusal log = %q, want it to name the client role", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never logged the refused handshake")
	}
	if n := coord.WorkerCount(); n != 0 {
		t.Fatalf("coordinator registered %d workers from a client hello", n)
	}
}

// TestRemoteRejectsUnserializablePoints: custom cache models cannot cross
// the network; the client fails fast before submitting (the server here is
// unreachable on purpose).
func TestRemoteRejectsUnserializablePoints(t *testing.T) {
	job := testJob(t)
	job.Points[1].Config.DCache = customModel{}
	_, err := sweepHTTP(context.Background(), &jobd.Client{Server: "http://127.0.0.1:1"}, job, nil)
	if err == nil || !strings.Contains(err.Error(), "not serializable") {
		t.Fatalf("err = %v, want a serialization failure naming the point", err)
	}
	if !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("err = %v, want the failing point identified", err)
	}
}

type customModel struct{}

func (customModel) Access(uint32, bool) (bool, int) { return true, 1 }
func (customModel) Stats() cache.Stats              { return cache.Stats{} }
func (customModel) Reset()                          {}

// TestRemoteCancellation: cancelling the client context returns promptly
// and cancels the job service-side.
func TestRemoteCancellation(t *testing.T) {
	d, _ := cluster(t, 2, nil)
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for i := 0; i < 4; i++ {
		cfg := core.DefaultConfig()
		cfg.RBSize = 8 << i
		pts = append(pts, sweep.Point{Name: "rb", Config: cfg})
	}
	// Uncacheable (over the per-trace cap), effectively unbounded budget:
	// the engines run until cancellation reaches the workers.
	job := &sweepd.Job{Profile: p, Instructions: 1 << 62, Points: pts}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = sweepHTTP(ctx, d.cli, job, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled remote sweep did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	jobs, err := d.cli.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != jobd.StateCanceled {
		t.Fatalf("jobs after client cancellation = %+v, want one canceled job", jobs)
	}
}

// TestRemoteWorkerDeathMidJobRequeues kills one worker's process context
// mid-job; the coordinator requeues its groups on the survivor and the job
// completes with full, correct results.
func TestRemoteWorkerDeathMidJobRequeues(t *testing.T) {
	coord := sweepd.NewCoordinator()
	d := serveDoor(t, coord, jobd.Options{})
	addr := d.addr

	// Survivor worker.
	sctx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	go sweepd.Work(sctx, addr, sweepd.WorkerOptions{Name: "survivor"}) //nolint:errcheck

	// Victim worker: its context dies as soon as it emits its first result.
	vctx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victimEmitted := make(chan struct{}, 16)
	go sweepd.Work(vctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name: "victim",
		Observer: core.ObserverFunc(func(core.Progress) {
			victimEmitted <- struct{}{}
		}),
	})
	go func() {
		<-victimEmitted
		killVictim()
	}()

	waitWorkers(t, coord, 2)

	job := testJob(t)
	want := reference(t, job)
	got, err := sweepHTTP(context.Background(), d.cli, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a worker death differ from the reference")
	}
}

// TestRemoteWorkerDeathResumesFromCheckpoint exercises checkpoint shipping
// over real TCP: a victim worker with a tight checkpoint cadence is killed
// only after the coordinator has received at least one of its shipped
// checkpoints, so the requeued group provably carries resume state; the
// survivor logs the mid-run resume and the job still finishes with results
// byte-identical to the reference.
func TestRemoteWorkerDeathResumesFromCheckpoint(t *testing.T) {
	coord := sweepd.NewCoordinator()

	// Observe the first checkpoint receipt through the coordinator log.
	ckptSeen := make(chan struct{})
	var ckptOnce sync.Once
	var logMu sync.Mutex
	var resumeLines []string
	coord.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "sweepd.checkpoint_received") && strings.Contains(line, "worker=victim") {
			ckptOnce.Do(func() { close(ckptSeen) })
		}
	}
	d := serveDoor(t, coord, jobd.Options{})
	addr := d.addr

	// Survivor: ordinary worker that records its own resume log lines.
	sctx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	go sweepd.Work(sctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name:            "survivor",
		CheckpointEvery: 2048,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if strings.Contains(line, "sweepd.point_resumed") {
				logMu.Lock()
				resumeLines = append(resumeLines, line)
				logMu.Unlock()
			}
		},
	})
	// Victim: dies once the coordinator holds one of its checkpoints.
	vctx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	go sweepd.Work(vctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name: "victim", CheckpointEvery: 2048,
	})
	go func() {
		<-ckptSeen
		killVictim()
	}()

	waitWorkers(t, coord, 2)

	// One group per worker, with a budget long enough that checkpoints ship
	// well before either point completes — and, since the kill trigger is
	// the coordinator-side receipt racing the victim's own simulation, long
	// enough that the event-aware engine (an order of magnitude above the
	// wire round-trip) is still provably mid-run when the kill lands.
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for _, rb := range []int{8, 16} {
		cfg := core.DefaultConfig()
		cfg.RBSize = rb
		pts = append(pts, sweep.Point{Name: "rb=" + itoa(rb), Config: cfg})
	}
	job := &sweepd.Job{Profile: p, Instructions: 600_000, Points: pts}
	want := reference(t, job)
	got, err := sweepHTTP(context.Background(), d.cli, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a checkpoint-resumed worker death differ from the reference")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(resumeLines) == 0 {
		t.Error("survivor never resumed a point from a shipped checkpoint (requeued group restarted from cycle 0)")
	}
}
