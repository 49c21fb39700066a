package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobd"
	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// tenants are the two weighted tenants; client i submits as tenants[i].
var tenants = []jobd.Tenant{
	{Name: "explore", Token: "tok-explore", Weight: 2},
	{Name: "batch", Token: "tok-batch", Weight: 1},
}

// serviceEnv is the cluster deployment in one process: a sweepd
// coordinator with two TCP workers started by sweepd.Work, the jobd
// platform over it with an on-disk journal, and the HTTP door on
// loopback. The coordinator's spill directory holds every trace the jobs
// use, so each group assignment ships its trace container.
type serviceEnv struct {
	dir      string
	grid     []pointSpec
	ref      *reference
	coord    *sweepd.Coordinator
	platform *jobd.Platform
	httpSrv  *http.Server
	base     string
	wire     *countingListener
	wcaches  []*tracecache.Cache
	cancel   context.CancelFunc
	workers  sync.WaitGroup
	clis     []*jobd.Client

	// containers maps each spilled trace's key ID to its key; exportMS
	// and containerBytes are the set-up's Trace.WriteContainer costs.
	containers     map[string]tracecache.Key
	exportMS       []float64
	containerBytes []float64

	before serviceSnapshot // taken by beginTrace
	mu     sync.Mutex
	ls     serviceLayers
}

// serviceLayers accumulates the traced run's per-layer counts.
type serviceLayers struct {
	jobs, groups             int
	ckpts                    int
	ckptBytes                float64
	submitMS, queueMS, dfrMS []float64
	lagMS                    []float64
	coreS                    float64
}

func setupService(ctx context.Context, grid []pointSpec, workdir string, n int) (_ *serviceEnv, err error) {
	e := &serviceEnv{dir: filepath.Join(workdir, fmt.Sprintf("service-%d", n)), grid: grid,
		containers: map[string]tracecache.Key{}}
	spill := filepath.Join(e.dir, "spill")
	journal := filepath.Join(e.dir, "journal")
	for _, d := range []string{spill, journal} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.ref, err = computeReference(ctx, e.grid, func(t *tracecache.Trace) error {
		start := time.Now()
		path := filepath.Join(spill, t.Key().ID()+".rstc")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := t.WriteContainer(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		e.exportMS = append(e.exportMS, float64(time.Since(start))/1e6)
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		e.containerBytes = append(e.containerBytes, float64(st.Size()))
		e.containers[t.Key().ID()] = t.Key()
		return nil
	})
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	coordCache := tracecache.New(tracecache.Config{SpillDir: spill})
	e.coord = sweepd.NewCoordinator()
	e.coord.Traces = coordCache
	e.coord.Metrics = sweepd.RegisterCoordinatorMetrics(reg)
	tracecache.RegisterMetrics(reg, coordCache)
	e.platform, err = jobd.New(jobd.Options{Pool: e.coord, JournalDir: journal, Tenants: tenants, Metrics: reg})
	if err != nil {
		return nil, err
	}
	e.coord.OnWorkersChanged = e.platform.Kick

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.wire = &countingListener{Listener: ln}
	go e.coord.Serve(e.wire) //nolint:errcheck // the accept loop ends at Close
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.httpSrv = &http.Server{Handler: e.platform.Handler()}
	go e.httpSrv.Serve(hln) //nolint:errcheck // ends at Shutdown
	e.base = "http://" + hln.Addr().String()

	wctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	// The workers share the host's cores evenly, as one worker per core
	// would be deployed. With GOMAXPROCS engines each, two workers
	// oversubscribe the cores and throughput flips between regimes from
	// run to run.
	const nWorkers = 2
	parallelism := max(1, runtime.GOMAXPROCS(0)/nWorkers)
	for i := 0; i < nWorkers; i++ {
		wc := tracecache.New(tracecache.Config{})
		e.wcaches = append(e.wcaches, wc)
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			// Work returns when the coordinator closes the connection
			// or the context ends; a worker that fails to register shows
			// as a registration timeout below.
			_ = sweepd.Work(wctx, ln.Addr().String(), sweepd.WorkerOptions{
				Name: fmt.Sprintf("w%d", i+1), Parallelism: parallelism, Traces: wc})
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.coord.WorkerCount() < nWorkers {
		if time.Now().After(deadline) {
			return nil, errors.New("service: workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	for _, t := range tenants {
		// One connection per client: each client's requests are strictly
		// sequential, so keep-alive reuses a single connection.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		e.clis = append(e.clis, &jobd.Client{Server: e.base, Token: t.Token, HTTPClient: &http.Client{Transport: tr}})
	}
	return e, nil
}

func (e *serviceEnv) clients() int { return len(tenants) }

func (e *serviceEnv) beginTrace(ctx context.Context) (err error) {
	e.before, err = e.snapshot(ctx)
	return err
}

// close stops the HTTP door, the platform, the coordinator and the
// workers, waits for the workers to return, and removes the directory.
func (e *serviceEnv) close() {
	if e.httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.httpSrv.Shutdown(sctx) // a stream still open after 5 s is cut
		cancel()
	}
	for _, c := range e.clis {
		c.HTTPClient.CloseIdleConnections()
	}
	if e.platform != nil {
		e.platform.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	if e.cancel != nil {
		e.cancel()
	}
	e.workers.Wait()
	os.RemoveAll(e.dir)
}

// run submits one job as client c and follows it to its terminal state.
// Client 0 streams results live; client 1 follows the telemetry stream to
// the terminal state and then replays the results.
func (e *serviceEnv) run(ctx context.Context, c int, o op, opID int, tr *tracer) opResult {
	cli := e.clis[c]
	pts, err := wirePoints(e.grid, o)
	if err != nil {
		return opResult{err: err}
	}
	root := tr.begin(opID, 0, "op.job")
	start := time.Now()
	sub := tr.begin(opID, root, "jobd.submit")
	st, err := cli.Submit(ctx, jobd.SubmitRequest{Workload: o.profile, Instructions: instructions, Points: pts})
	submitted := time.Now()
	tr.end(sub)
	if err != nil {
		tr.end(root)
		var se *jobd.StatusError
		if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
			return opResult{refused: true}
		}
		return opResult{err: err}
	}
	r := opResult{ok: true, first: -1}
	seen := make([]bool, len(pts))
	onResult := func(wr *sweepd.WireResult) error {
		if r.first < 0 && c == 0 {
			r.first = time.Since(start).Seconds()
		}
		if wr.Index < 0 || wr.Index >= len(pts) || seen[wr.Index] {
			r.ok = false
			return nil
		}
		seen[wr.Index] = true
		if wr.Err != "" || wr.Res == nil || !e.ref.check(o.profile, o.points[wr.Index], wireDigest(wr.Res)) {
			r.ok = false
			return nil
		}
		r.committed += wr.Res.Committed
		r.cycles += wr.Res.Cycles
		return nil
	}
	var state jobd.State
	if c == 0 {
		state, err = cli.Results(ctx, st.ID, onResult)
	} else {
		state, err = cli.Telemetry(ctx, st.ID, nil)
	}
	end := time.Now()
	tr.end(root)
	if err != nil {
		return opResult{err: err}
	}
	r.latency = end.Sub(start).Seconds()
	if c != 0 {
		if _, err := cli.Results(ctx, st.ID, onResult); err != nil {
			return opResult{err: err}
		}
	}
	for _, ok := range seen {
		r.ok = r.ok && ok
	}
	r.ok = r.ok && state == jobd.StateDone
	if tr != nil {
		if err := e.traceJob(ctx, cli, st.ID, o, opID, root, submitted.Sub(start), end, tr); err != nil {
			return opResult{err: err}
		}
	}
	return r
}

// traceJob replays the job's lifecycle spans (Client.Trace) and turns them
// into ledger spans under the job's root: the queue wait from admission to
// each group's dispatch, each group from dispatch to its last point_done,
// and the stream lag from the last point_done to the terminal state the
// client saw. Workers expose no engine timing, so each point's engine span
// ends at its point_done event and lasts as long as that point's direct
// core run in the reference.
func (e *serviceEnv) traceJob(ctx context.Context, cli *jobd.Client, id string, o op, opID, root int, submitDur time.Duration, end time.Time, tr *tracer) error {
	var spans []jobd.TraceSpan
	if _, err := cli.Trace(ctx, id, func(s jobd.TraceSpan) error {
		spans = append(spans, s)
		return nil
	}); err != nil {
		return err
	}
	groupOf := make([]string, len(o.points))
	for i, gi := range o.points {
		key, err := traceKey(o.profile, e.grid[gi].config())
		if err != nil {
			return err
		}
		groupOf[i] = key.ID()
	}
	var admit, firstDispatch, firstResult, lastDone time.Time
	dispatch := map[string]time.Time{}
	done := make([]time.Time, len(o.points))
	var ckpts int
	var ckptBytes float64
	for _, s := range spans {
		switch s.Event {
		case jobd.SpanAdmit:
			admit = s.Time
		case jobd.SpanDispatch:
			if _, ok := dispatch[s.Group]; !ok {
				dispatch[s.Group] = s.Time
			}
			if firstDispatch.IsZero() {
				firstDispatch = s.Time
			}
		case jobd.SpanFirstResult:
			firstResult = s.Time
		case jobd.SpanPointDone:
			if s.Point >= 0 && s.Point < len(done) {
				done[s.Point] = s.Time
			}
			if s.Time.After(lastDone) {
				lastDone = s.Time
			}
		case jobd.SpanCheckpoint:
			ckpts++
			if b, err := strconv.Atoi(strings.TrimSuffix(s.Detail, " bytes")); err == nil {
				ckptBytes += float64(b)
			}
		}
	}
	if admit.IsZero() || firstDispatch.IsZero() || lastDone.IsZero() {
		return fmt.Errorf("job %s: lifecycle log lacks admit, dispatch or point_done", id)
	}
	var coreS float64
	for g, at := range dispatch {
		tr.add(opID, root, "jobd.queue", admit, at)
		var gEnd time.Time
		for i, pg := range groupOf {
			if pg == g && done[i].After(gEnd) {
				gEnd = done[i]
			}
		}
		gs := tr.add(opID, root, "sweepd.group", at, gEnd)
		for i, pg := range groupOf {
			if pg != g || done[i].IsZero() {
				continue
			}
			d := e.ref.engineS[refKey{o.profile, o.points[i]}]
			coreS += d
			tr.add(opID, gs, "core.run", done[i].Add(-time.Duration(d*float64(time.Second))), done[i])
		}
	}
	tr.add(opID, root, "jobd.stream_lag", lastDone, end)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.ls.jobs++
	e.ls.groups += len(dispatch)
	e.ls.ckpts += ckpts
	e.ls.ckptBytes += ckptBytes
	e.ls.coreS += coreS
	e.ls.submitMS = append(e.ls.submitMS, ms(submitDur))
	e.ls.queueMS = append(e.ls.queueMS, ms(firstDispatch.Sub(admit)))
	if !firstResult.IsZero() {
		e.ls.dfrMS = append(e.ls.dfrMS, ms(firstResult.Sub(firstDispatch)))
	}
	e.ls.lagMS = append(e.ls.lagMS, ms(end.Sub(lastDone)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// countingListener counts the bytes the coordinator's connections carry
// and the time spent writing them.
type countingListener struct {
	net.Listener
	tx, rx, writeNS atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.l.writeNS.Add(int64(time.Since(start)))
	c.l.tx.Add(int64(n))
	return n, err
}

// serviceSnapshot is the state the traced run's per-layer metrics are
// deltas of: /metrics counters and histogram buckets, wire counters,
// worker cache statistics and the journal's size.
type serviceSnapshot struct {
	prom              map[string]float64
	tx, rx, writeNS   int64
	hits, gens, seeds uint64
	resident          int64
	journalBytes      int64
}

func (e *serviceEnv) snapshot(ctx context.Context) (serviceSnapshot, error) {
	var s serviceSnapshot
	prom, err := scrape(ctx, e.base+"/metrics")
	if err != nil {
		return s, err
	}
	s.prom = prom
	s.tx, s.rx, s.writeNS = e.wire.tx.Load(), e.wire.rx.Load(), e.wire.writeNS.Load()
	for _, wc := range e.wcaches {
		st := wc.Stats()
		s.hits += st.Hits
		s.gens += st.Generations
		s.seeds += st.Seeds
		s.resident += st.Resident
	}
	err = filepath.WalkDir(filepath.Join(e.dir, "journal"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		s.journalBytes += info.Size()
		return nil
	})
	return s, err
}

// scrape fetches a Prometheus text exposition and returns each sample by
// its full name including labels.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histogramQuantile estimates quantile q of the named histogram from the
// bucket-count deltas between two scrapes, interpolating linearly within
// the bucket that holds it, as Prometheus's histogram_quantile does.
func histogramQuantile(name string, q float64, before, after map[string]float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := math.Inf(1)
		if s := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`); s != "+Inf" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	target := q * bs[len(bs)-1].count
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*share(target-prev, b.count-prev)
		}
		lo, prev = b.le, b.count
	}
	return lo
}

// layers reports the traced run's per-layer metrics from the deltas
// between the snapshots taken around the traced phase, and runs the
// checkpoint and container probes.
func (e *serviceEnv) layers(ctx context.Context, lg ledger) (map[string]float64, error) {
	before := e.before
	after, err := e.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	ls := e.ls
	e.mu.Unlock()
	jobs := float64(ls.jobs)
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	m := map[string]float64{}
	m["core.run_s"] = ls.coreS
	m["core.ckpt_count"] = float64(ls.ckpts)
	m["core.ckpt_bytes_mean"] = share(ls.ckptBytes, float64(ls.ckpts))
	hits, gens, seeds := after.hits-before.hits, after.gens-before.gens, after.seeds-before.seeds
	m["tracecache.hits"] = float64(hits)
	m["tracecache.generations"] = float64(gens)
	m["tracecache.seeds"] = float64(seeds)
	m["tracecache.hit_ratio"] = share(float64(hits), float64(hits+gens+seeds))
	m["tracecache.resident_mb"] = float64(after.resident) / (1 << 20)
	m["tracecache.export_ms"] = mean(e.exportMS)
	m["tracecache.container_kb"] = mean(e.containerBytes) / 1024
	m["sweepd.groups_per_sweep"] = share(float64(ls.groups), jobs)
	// sweepd.idle_core_share is defined for Session.Sweep's local
	// scheduling only, so it reads 0 here.
	m["sweepd.wire_tx_bytes"] = share(float64(after.tx-before.tx), jobs)
	m["sweepd.wire_rx_bytes"] = share(float64(after.rx-before.rx), jobs)
	m["sweepd.wire_write_ms"] = share(float64(after.writeNS-before.writeNS)/1e6, jobs)
	m["sweepd.group_rtt_p50_ms"] = 1000 * histogramQuantile("sweepd_group_rtt_seconds", 0.5, before.prom, after.prom)
	m["sweepd.groups_dispatched"] = d("sweepd_groups_dispatched_total")
	m["sweepd.groups_requeued"] = d("sweepd_groups_requeued_total")
	m["sweepd.trace_ships"] = d("sweepd_trace_ships_total")
	m["sweepd.trace_ship_bytes"] = d("sweepd_trace_ship_bytes_total")
	m["jobd.submit_p50_ms"] = median(ls.submitMS)
	m["jobd.queue_wait_p50_ms"] = median(ls.queueMS)
	m["jobd.dispatch_to_first_result_p50_ms"] = median(ls.dfrMS)
	m["jobd.stream_lag_p50_ms"] = median(ls.lagMS)
	m["jobd.journal_kb_per_job"] = share(float64(after.journalBytes-before.journalBytes)/1024, jobs)
	m["jobd.rejected"] = d("jobd_admission_rejected_total")
	m["jobd.telemetry_snapshots"] = d("jobd_telemetry_snapshots_total")
	m["jobd.telemetry_dropped"] = d("jobd_telemetry_dropped_total")
	if m["core.ckpt_encode_ms"], m["core.ckpt_restore_ms"], err = checkpointProbe(ctx, e.grid, e.ref); err != nil {
		return nil, err
	}
	if m["tracecache.seed_ms"], err = seedProbe(filepath.Join(e.dir, "spill"), e.containers); err != nil {
		return nil, err
	}
	return m, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return share(s, float64(len(xs)))
}
