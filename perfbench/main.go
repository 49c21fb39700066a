// Command perfbench is the repository's benchmark: it runs one of three
// workloads against the simulator's public entry points (Session.Sweep,
// the jobd HTTP door, and TCP workers started by sweepd.Work), checks
// every simulated result against a direct core run, and prints the
// end-to-end metrics (untraced) or the per-layer metrics and cost ledger
// (traced). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// hardCap bounds a measured phase that has not reached its minimum
// operation count, so a run always ends within the time limit.
const hardCap = 120 * time.Second

// env is a workload that has been set up and can run operations.
type env interface {
	clients() int
	// run performs operation o as client c; a non-nil tracer records
	// the operation's spans under opID.
	run(ctx context.Context, c int, o op, opID int, tr *tracer) opResult
	// beginTrace marks the start of the traced phase, whose per-layer
	// counters are deltas from this point.
	beginTrace(ctx context.Context) error
	// layers reports the traced phase's per-layer metrics, running the
	// workload's probes.
	layers(ctx context.Context, lg ledger) (map[string]float64, error)
	close()
}

// opResult is one sweep or job as its client saw it.
type opResult struct {
	id                int     // the operation's ID, as spans record it
	latency, first    float64 // seconds from start; first < 0 when not observed
	committed, cycles uint64
	ok                bool // every point's result matched the reference
	refused           bool // admission control answered 429
	err               error
}

func (r opResult) failed() bool { return r.err != nil || r.refused || !r.ok }

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	grid  func() []pointSpec
	sizes []int // points per operation, cycled through in seeded order
	// setup builds the n-th set-up of the workload over grid; workdir
	// holds its files.
	setup func(ctx context.Context, grid []pointSpec, workdir string, n int) (env, error)
	// replayed is set when the traced run does not make the operation
	// itself but replays its calls into the layers: the ledger is then
	// charged against the untraced run's wall time of the same
	// operations, so what the replay leaves out shows as residual.
	replayed bool
	// pause is how the measured phase pauses to probe the host.
	pause hostPause
	// notes qualifies per-layer figures that are not measured on the
	// operations themselves; the traced report prints them beside the
	// figure.
	notes map[string]string
}

// replayNote marks the per-layer figures explore-* takes from the traced
// replay of Session.Sweep's calls.
const replayNote = "busy time from the replay of Session.Sweep's calls"

var exploreNotes = map[string]string{
	"core.run_s":                replayNote,
	"core.host_mips":            replayNote,
	"funcsim.gen_s":             replayNote,
	"funcsim.gen_mips":          replayNote,
	"sweepd.idle_core_share":    replayNote + ", over Session.Sweep's wall time",
	"ledger.self_share.core":    replayNote,
	"ledger.self_share.funcsim": replayNote,
}

// explorePause probes between sweeps: explore-* has one client, so a
// pause idles nothing.
var explorePause = hostPause{every: 250 * time.Millisecond, probes: 1}

var workloads = []workloadDef{
	{name: "explore-warm", grid: warmGrid, sizes: []int{6}, replayed: true, notes: exploreNotes, pause: explorePause,
		setup: func(ctx context.Context, grid []pointSpec, _ string, _ int) (env, error) {
			return setupExplore(ctx, grid, true)
		}},
	{name: "explore-cold", grid: coldGrid, sizes: []int{6}, replayed: true, notes: exploreNotes, pause: explorePause,
		setup: func(ctx context.Context, grid []pointSpec, _ string, _ int) (env, error) {
			return setupExplore(ctx, grid, false)
		}},
	// Jobs of two clients overlap, so a pause idles a client until the
	// other's job ends; pausing once a second keeps that rare.
	{name: "service-jobs", grid: serviceGrid, sizes: []int{1, 2, 3, 4}, pause: hostPause{every: time.Second, probes: 4},
		notes: map[string]string{
			"core.run_s":             "reference-derived: engine times of the set-up's direct runs",
			"core.host_mips":         "reference-derived: engine times of the set-up's direct runs",
			"ledger.self_share.core": "reference-derived: engine times of the set-up's direct runs",
			"sweepd.idle_core_share": "defined for explore-* only",
		},
		setup: func(ctx context.Context, grid []pointSpec, dir string, n int) (env, error) {
			return setupService(ctx, grid, dir, n)
		}},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var o options
	var traceFlag, spreadRuns int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: explore-warm, explore-cold or service-jobs")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured phase length")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics and the ledger")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for journals, spill files and span logs")
	fs.IntVar(&spreadRuns, "spread", 0, "repeated-runs mode: run each workload (comma-separated, or all) this many times with seeds seed, seed+1, ... and report each end-to-end metric's quartiles against its bound in BENCHMARK.json")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	o.trace = traceFlag == 1
	if spreadRuns > 0 {
		names := strings.Split(o.workload, ",")
		if o.workload == "all" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		ok, err := spread(context.Background(), o, spreadRuns, "BENCHMARK.json", names, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, report, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and returns the result line and a
// human-readable report.
func run(ctx context.Context, o options) (result, string, error) {
	wd, err := workloadByName(o.workload)
	if err != nil {
		return result{}, "", err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, "", err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, "", err
	}
	defer os.RemoveAll(dir)

	grid := wd.grid()
	hs := newHostSpeed(wd.pause)
	var setupS []float64
	var e env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i := 0; i < setups; i++ {
		// The previous set-up is closed and its memory collected first,
		// so each one starts from the same idle process and heap: left
		// uncollected, the previous set-up's garbage decides whether
		// the collector runs during the next one.
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		for j := 0; j < setupProbes; j++ {
			hs.probe()
		}
		start := time.Now()
		ne, err := wd.setup(ctx, grid, dir, i)
		if err != nil {
			return result{}, "", fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		e = ne
	}

	ops := make([][]op, e.clients())
	for c := range ops {
		// Clients complete at most a few dozen operations a second, so
		// this outlasts hardCap.
		ops[c] = makeOps(o.seed*1000+int64(c), 10_000, len(grid), wd.sizes)
	}
	var rep strings.Builder
	fmt.Fprintf(&rep, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	if !o.trace {
		mark := len(hs.samples)
		ph := measure(ctx, e, ops, o.seconds, minSamples(90), nil, nil, hs)
		res, err := endToEnd(ph, setupS, hs.slowdown(0, mark), hs.slowdown(mark, len(hs.samples)), &rep)
		return res, rep.String(), err
	}
	plain := measure(ctx, e, ops, o.seconds/2, minSamples(50), nil, nil, nil)
	if err := e.beginTrace(ctx); err != nil {
		return result{}, "", err
	}
	tr := newTracer()
	traced := measure(ctx, e, ops, 0, 0, plain.perClient, tr, nil)
	if err := tr.writeJSONL(filepath.Join(o.workdir, "spans-"+o.workload+".jsonl")); err != nil {
		return result{}, "", err
	}
	res, err := perLayer(ctx, e, plain, traced, tr, &rep, wd)
	return res, rep.String(), err
}

// phase is one measured phase's operations.
type phase struct {
	results   []opResult
	perClient []int
	wall      float64 // excludes host probes
}

// measure runs every client's operations in a closed loop: each client
// sends its next operation when the previous one completes. Without
// limits it runs until seconds have passed and at least minOps operations
// completed; with limits, client c runs exactly its first limits[c]
// operations. With hs set, at every pause of hs the phase lets the
// operations in flight finish, holds back new ones and probes the host;
// the probes' time is not part of the phase's wall time.
func measure(ctx context.Context, e env, ops [][]op, seconds float64, minOps int, limits []int, tr *tracer, hs *hostSpeed) phase {
	ph := phase{perClient: make([]int, len(ops))}
	var (
		mu     sync.Mutex
		done   atomic.Int64
		wg     sync.WaitGroup
		gate   sync.RWMutex // held for writing while the host is probed
		paused atomic.Int64 // nanoseconds spent probing
	)
	stop, probed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probed)
		if hs == nil {
			return
		}
		tick := time.NewTicker(hs.pause.every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gate.Lock()
				for i := 0; i < hs.pause.probes; i++ {
					paused.Add(int64(hs.probe()))
				}
				gate.Unlock()
			}
		}
	}()
	start := time.Now()
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ops[c]); i++ {
				gate.RLock()
				el := time.Since(start) - time.Duration(paused.Load())
				if limits != nil {
					if i >= limits[c] {
						gate.RUnlock()
						return
					}
				} else if (el.Seconds() >= seconds && done.Load() >= int64(minOps)) || el > hardCap {
					gate.RUnlock()
					return
				}
				id := c*1_000_000 + i + 1
				r := e.run(ctx, c, ops[c][i], id, tr)
				gate.RUnlock()
				r.id = id
				done.Add(1)
				mu.Lock()
				ph.results = append(ph.results, r)
				ph.perClient[c]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-probed
	ph.wall = (time.Since(start) - time.Duration(paused.Load())).Seconds()
	return ph
}

// tally is a phase's operations summed up; latencies are of the
// operations that succeeded.
type tally struct {
	attempted, failed  int
	committed, cycles  uint64
	latencyMS, firstMS []float64
	firstErr           error
}

func (ph phase) tally() tally {
	var t tally
	for _, r := range ph.results {
		t.attempted++
		if r.failed() {
			t.failed++
			if r.err != nil && t.firstErr == nil {
				t.firstErr = r.err
			}
			continue
		}
		t.committed += r.committed
		t.cycles += r.cycles
		t.latencyMS = append(t.latencyMS, r.latency*1000)
		if r.first >= 0 {
			t.firstMS = append(t.firstMS, r.first*1000)
		}
	}
	return t
}

// result starts the phase's result line.
func (t tally) result(rep io.Writer) result {
	if t.firstErr != nil {
		fmt.Fprintf(rep, "first error: %v\n", t.firstErr)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
}

// endToEnd computes the untraced run's metrics. Timings are reported at
// the reference host speed (see hostSpeed): setup_s is scaled by
// setupSlowdown, that of the probes made before the set-ups, and the
// measured phase's timings by slowdown, that of the probes made during
// the phase. The report also prints every timing as timed.
func endToEnd(ph phase, setupS []float64, setupSlowdown, slowdown float64, rep io.Writer) (result, error) {
	t := ph.tally()
	res := t.result(rep)
	attempted, failed, lat, first := t.attempted, t.failed, t.latencyMS, t.firstMS
	p50, err := percentile(lat, 50)
	if err != nil {
		return res, fmt.Errorf("op latency: %w", err)
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return res, fmt.Errorf("op latency: %w", err)
	}
	f50, err := percentile(first, 50)
	if err != nil {
		return res, fmt.Errorf("first result: %w", err)
	}
	vals := map[string]float64{
		"sim_mips":            float64(t.committed) / ph.wall / 1e6,
		"op_p50_ms":           p50,
		"op_p90_ms":           p90,
		"ops_per_s":           float64(attempted) / ph.wall,
		"first_result_p50_ms": f50,
		"ok_ratio":            1 - float64(failed)/float64(attempted),
		"setup_s":             median(setupS),
		"peak_rss_mb":         peakRSSMB(),
	}
	samples := map[string]int{"op_p50_ms": len(lat), "op_p90_ms": len(lat), "first_result_p50_ms": len(first),
		"setup_s": len(setupS)}
	// Rates grow with host speed; the other timings shrink.
	scaled := func(name string, v float64) float64 {
		switch name {
		case "sim_mips", "ops_per_s":
			return v * slowdown
		case "op_p50_ms", "op_p90_ms", "first_result_p50_ms":
			return v / slowdown
		case "setup_s":
			return v / setupSlowdown
		}
		return v
	}
	fmt.Fprintf(rep, "  host slowdown %.4f in set-up, %.4f measured (mean probe / %v nominal); scaled value, then as timed\n",
		setupSlowdown, slowdown, hostNominal)
	for _, m := range endToEndMetrics {
		v := scaled(m.name, vals[m.name])
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		n := samples[m.name]
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(rep, "  %-22s %14.4f %14.4f %-8s n=%d\n", m.name, v, vals[m.name], m.unit, n)
	}
	fmt.Fprintf(rep, "  %-22s %14.4f %-8s n=%d (%d failed of %d attempted)\n", "failed_ratio",
		float64(failed)/float64(attempted), "ratio", attempted, failed, attempted)
	return res, nil
}

// perLayer computes the traced run's per-layer metrics and ledger.
// plain is the untraced phase and traced the same operations with spans.
func perLayer(ctx context.Context, e env, plain, traced phase, tr *tracer, rep io.Writer, wd workloadDef) (result, error) {
	t := traced.tally()
	res := t.result(rep)
	var charged map[int]int64
	if wd.replayed {
		charged = map[int]int64{}
		for _, r := range plain.results {
			charged[r.id] = int64(r.latency * 1e9)
		}
	}
	lg := buildLedger(tr.all(), charged)
	vals, err := e.layers(ctx, lg)
	if err != nil {
		return res, err
	}
	vals["core.committed"] = float64(t.committed)
	vals["core.cycles"] = float64(t.cycles)
	vals["core.host_mips"] = share(float64(t.committed), vals["core.run_s"]) / 1e6
	probes, err := runStageProbes(ctx)
	if err != nil {
		return res, err
	}
	for k, v := range probes {
		vals[k] = v
	}
	var plainS, tracedS float64
	for _, r := range plain.results {
		plainS += r.latency
	}
	for _, r := range traced.results {
		tracedS += r.latency
	}
	overhead := share(tracedS, plainS)
	vals["ledger.residual_share"] = share(float64(lg.Residual), float64(lg.Wall))
	vals["ledger.trace_overhead_share"] = overhead
	for _, l := range ledgerLayers {
		vals["ledger.self_share."+l] = share(float64(lg.Self[l]), float64(lg.Wall))
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		note := ""
		if n := wd.notes[m.name]; n != "" {
			note = " (" + n + ")"
		}
		fmt.Fprintf(rep, "  %-40s %14.4f %s%s\n", m.name, vals[m.name], m.unit, note)
	}
	fmt.Fprint(rep, lg.format(wd.name, overhead, wd.replayed))
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// metricDef is a reported metric's name and unit; BENCHMARK.json lists
// the same names.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run. An operation is a
// Session.Sweep call on explore-* and a job, from submission to the
// terminal state on the client's stream, on service-jobs.
var endToEndMetrics = []metricDef{
	{"sim_mips", "MIPS"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"first_result_p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// ledgerLayers are the layers whose self time the ledger reports as a
// share of operation wall time.
var ledgerLayers = []string{"core", "funcsim", "tracecache", "sweepd", "jobd"}

// perLayerMetrics are reported by every traced run; a layer a workload
// does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"core.run_s", "s"},
	{"core.committed", "count"},
	{"core.cycles", "count"},
	{"core.host_mips", "MIPS"},
	{"core.ckpt_count", "count"},
	{"core.ckpt_bytes_mean", "B"},
	{"core.ckpt_encode_ms", "ms"},
	{"core.ckpt_restore_ms", "ms"},
	{"core.probe.wake_mips", "MIPS"},
	{"core.probe.mem_mips", "MIPS"},
	{"core.probe.branch_mips", "MIPS"},
	{"funcsim.gen_s", "s"},
	{"funcsim.records", "count"},
	{"funcsim.gen_mips", "MIPS"},
	{"funcsim.wrongpath_share", "ratio"},
	{"tracecache.hits", "count"},
	{"tracecache.generations", "count"},
	{"tracecache.seeds", "count"},
	{"tracecache.hit_ratio", "ratio"},
	{"tracecache.resident_mb", "MB"},
	{"tracecache.export_ms", "ms"},
	{"tracecache.container_kb", "KB"},
	{"tracecache.seed_ms", "ms"},
	{"sweepd.groups_per_sweep", "count"},
	{"sweepd.idle_core_share", "ratio"},
	{"sweepd.wire_tx_bytes", "B/job"},
	{"sweepd.wire_rx_bytes", "B/job"},
	{"sweepd.wire_write_ms", "ms/job"},
	{"sweepd.group_rtt_p50_ms", "ms"},
	{"sweepd.groups_dispatched", "count"},
	{"sweepd.groups_requeued", "count"},
	{"sweepd.trace_ships", "count"},
	{"sweepd.trace_ship_bytes", "B"},
	{"jobd.submit_p50_ms", "ms"},
	{"jobd.queue_wait_p50_ms", "ms"},
	{"jobd.dispatch_to_first_result_p50_ms", "ms"},
	{"jobd.stream_lag_p50_ms", "ms"},
	{"jobd.journal_kb_per_job", "KB/job"},
	{"jobd.rejected", "count"},
	{"jobd.telemetry_snapshots", "count"},
	{"jobd.telemetry_dropped", "count"},
	{"ledger.residual_share", "ratio"},
	{"ledger.trace_overhead_share", "ratio"},
	{"ledger.self_share.core", "ratio"},
	{"ledger.self_share.funcsim", "ratio"},
	{"ledger.self_share.tracecache", "ratio"},
	{"ledger.self_share.sweepd", "ratio"},
	{"ledger.self_share.jobd", "ratio"},
}
