// Package sweepd is the sharded sweep service: coordinator/worker
// design-space exploration across processes and hosts. It scales the
// paper's bulk-simulation use case ("bulk simulations with varying design
// parameters") past one machine by sharding a sweep's design points across
// workers and streaming per-point results back as they finish.
//
// The scheduling unit is the trace key-group: every point whose (workload,
// derived trace configuration, instruction budget) hashes to the same
// tracecache.Key.ID() is routed to one worker, so each distinct trace is
// generated — or received as a shipped delta-compressed container — exactly
// once per host, no matter how many points replay it. Within a group the
// worker runs points through the ordinary sweep machinery against its own
// shared trace cache; across groups the scheduler fans out over every live
// worker and requeues a dead worker's unfinished points on a survivor.
//
// This package owns the job model (Job, Group), the Worker interface and
// its two transports — the in-process LoopbackWorker and the coordinator's
// proxies for TCP workers (Coordinator, Work, cmd/resimd) — plus the wire
// protocol between them. Scheduling lives in internal/jobd: its Platform
// dispatches every sweep's groups onto these workers, whether the sweep
// came from Session.Sweep (in memory, over loopback workers) or through
// the HTTP door (over the TCP workers registered with a Coordinator, whose
// port serves workers only).
package sweepd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Job is one sweep job: the resolved workload profile, the per-point
// correct-path instruction budget, and the design points. Points keep their
// input order; results are always returned in that order.
type Job struct {
	Profile      workload.Profile
	Instructions uint64
	Points       []sweep.Point

	// TelemetryEvery, when non-zero, makes workers stream per-interval
	// engine telemetry for every in-flight point: each engine emits a
	// core.IntervalSnapshot window delta at every TelemetryEvery-cycle
	// boundary, tagged with the job-wide point index (Snapshot.Core). The
	// cadence crosses the wire in each group assignment; the snapshots flow
	// back through OnTelemetry.
	TelemetryEvery uint64
	// OnTelemetry, when non-nil, receives every streamed snapshot. Delivery
	// is fire-and-forget — a slow or failing consumer never blocks or
	// aborts the sweep — and may be concurrent across points (in window
	// order within a point). Snapshots for points that already completed
	// (duplicate delivery after a requeue) are dropped by the scheduler.
	OnTelemetry func(index int, snap core.IntervalSnapshot) `json:"-"`
}

// DefaultCheckpointBudget bounds retained resume-checkpoint bytes per job
// (64 MiB ≈ several thousand points at the ~15 KiB a default engine
// checkpoint encodes to).
const DefaultCheckpointBudget = 64 << 20

// Group is one trace-key shard of a job: the indices of every point sharing
// one generated trace. The whole group is assigned to a single worker so
// the trace is produced once per host and replayed by the rest.
type Group struct {
	Key     tracecache.Key
	KeyID   string
	Indices []int
}

// Groups shards the job's points by trace key, preserving first-seen order.
// The key is a stable content address (tracecache.Key.ID()), so a
// coordinator and its workers — potentially different processes — agree on
// the routing unit by construction.
func (j *Job) Groups() []Group {
	byID := make(map[string]int, len(j.Points))
	var gs []Group
	for i := range j.Points {
		k := tracecache.KeyFor(j.Profile, j.Points[i].Config.TraceConfig(), j.Instructions)
		id := k.ID()
		gi, ok := byID[id]
		if !ok {
			gi = len(gs)
			byID[id] = gi
			gs = append(gs, Group{Key: k, KeyID: id})
		}
		gs[gi].Indices = append(gs[gi].Indices, i)
	}
	return gs
}

// PointResult is one completed design point, tagged with its index in the
// job's point list.
type PointResult struct {
	Index  int
	Result sweep.Result
}

// GroupRun is one group assignment handed to a worker: the job-wide indices
// of the points still to simulate, plus the checkpoint channel in both
// directions — the latest prior checkpoints to resume from, and the hook
// for shipping new ones back to the scheduler.
type GroupRun struct {
	// Indices selects the job points to run, in job order.
	Indices []int
	// Checkpoints holds the latest serialized core.Checkpoint per job-wide
	// point index, captured by a previous owner of this group. A worker
	// resumes those points from their checkpointed cycle instead of cycle 0;
	// an entry that fails to decode or restore degrades to a fresh run.
	Checkpoints map[int][]byte
	// OnCheckpoint, when non-nil, receives serialized checkpoints as the
	// worker captures them (keyed by job-wide point index), so the scheduler
	// holds a recent resume point if this worker dies. May be called
	// concurrently from several point engines.
	OnCheckpoint func(index int, data []byte)
	// OnTelemetry, when non-nil, receives per-interval telemetry snapshots
	// as the worker's engines emit them (keyed by job-wide point index,
	// also stamped into Snapshot.Core). Same concurrency contract as
	// OnCheckpoint; the worker streams only when Job.TelemetryEvery is set.
	OnTelemetry func(index int, snap core.IntervalSnapshot)
}

// Worker runs assigned key-groups. Implementations: LoopbackWorker
// (in-process) and the coordinator's per-connection remote worker proxy.
type Worker interface {
	// RunGroup simulates the points of job selected by gr.Indices and calls
	// emit once per completed point, in completion order. A non-nil error
	// means the worker died mid-group: results already emitted stand, the
	// remainder is requeued on a live worker — resuming from the
	// checkpoints the dead worker shipped — and this worker receives no
	// further groups.
	RunGroup(ctx context.Context, job *Job, gr GroupRun, emit func(PointResult)) error
}

// CheckpointStore retains the latest shipped resume checkpoint per
// unfinished point of one job, under a total byte budget. The job platform
// (internal/jobd) keeps one per admitted job, so the store carries its own
// mutex — concurrent jobs' stores are fully isolated, each enforcing only
// its own budget.
type CheckpointStore struct {
	mu      sync.Mutex
	budget  int64 // <= 0: unlimited
	total   int64
	data    map[int][]byte
	stamp   map[int]uint64 // last-update tick, for least-recently-updated eviction
	tick    uint64
	dropped int // checkpoints evicted to stay under budget
}

// NewCheckpointStore builds a store capping retained checkpoint bytes at
// budget (<= 0: unlimited).
func NewCheckpointStore(budget int64) *CheckpointStore {
	return &CheckpointStore{budget: budget, data: make(map[int][]byte), stamp: make(map[int]uint64)}
}

// Put stores the latest checkpoint for index, evicting the
// least-recently-updated other points as needed to stay under budget. A
// checkpoint that could never fit even alone is rejected up front — the
// point keeps whatever older (still valid, just earlier) resume state it
// had, and no other point's state is harmed making room for it.
func (s *CheckpointStore) Put(index int, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && int64(len(b)) > s.budget {
		s.dropped++
		return
	}
	s.dropLocked(index) // a replaced shipment no longer counts toward the budget
	if s.budget > 0 {
		for s.total+int64(len(b)) > s.budget && len(s.data) > 0 {
			lru, lruStamp := -1, uint64(0)
			for i, st := range s.stamp {
				if lru < 0 || st < lruStamp {
					lru, lruStamp = i, st
				}
			}
			s.evictLocked(lru)
		}
	}
	s.tick++
	s.data[index] = b
	s.stamp[index] = s.tick
	s.total += int64(len(b))
}

// Get returns the stored checkpoint for index, or nil.
func (s *CheckpointStore) Get(index int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[index]
}

// Drop releases index's checkpoint (its result landed, or it was evicted
// by Put).
func (s *CheckpointStore) Drop(index int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(index)
}

// TotalBytes reports the bytes currently retained.
func (s *CheckpointStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dropped reports checkpoints evicted or rejected to stay under budget.
func (s *CheckpointStore) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *CheckpointStore) dropLocked(index int) {
	if old, ok := s.data[index]; ok {
		s.total -= int64(len(old))
		delete(s.data, index)
		delete(s.stamp, index)
	}
}

func (s *CheckpointStore) evictLocked(index int) {
	if _, ok := s.data[index]; ok {
		s.dropLocked(index)
		s.dropped++
	}
}

// decodeResume builds the group-local resume map both worker transports
// hand to sweep.Runner: slot i of the assignment resumes from bytesFor(i)
// when those bytes decode. Undecodable entries degrade to from-scratch runs
// of their point (onBad, when non-nil, observes them).
func decodeResume(n int, bytesFor func(slot int) []byte, onBad func(slot int, err error)) map[int]*core.Checkpoint {
	var resume map[int]*core.Checkpoint
	for i := 0; i < n; i++ {
		data := bytesFor(i)
		if len(data) == 0 {
			continue
		}
		cp, err := core.DecodeCheckpoint(data)
		if err != nil {
			if onBad != nil {
				onBad(i, err)
			}
			continue
		}
		if resume == nil {
			resume = make(map[int]*core.Checkpoint)
		}
		resume[i] = cp
	}
	return resume
}

// errKilled reports a LoopbackWorker torn down by Kill.
var errKilled = errors.New("sweepd: worker killed")

// abortedResult reports a point result produced by cancellation rather than
// simulation: its error is the context's, so rerunning it elsewhere can
// still produce the real outcome. Genuine per-point failures (invalid
// configurations, engine errors) are deterministic and never context
// errors.
func abortedResult(res sweep.Result) bool {
	return errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)
}

// LoopbackOptions configures one in-process worker.
type LoopbackOptions struct {
	// Parallelism bounds concurrent engines within one assigned group;
	// 0 uses GOMAXPROCS.
	Parallelism int
	// Traces is the worker's shared trace cache — the stand-in for one
	// host's cache. nil (with DisableCache false) gives the worker a
	// private cache, the loopback analog of a fresh remote host.
	Traces *tracecache.Cache
	// DisableCache streams every point's trace from the functional
	// simulator instead of materializing it (Session-level WithTraceCache(nil)).
	DisableCache bool
	// Observer, when non-nil, receives the worker's own per-point progress
	// (Core is the point's job-wide index) — what a remote worker logs
	// locally while the coordinator streams results to the client.
	Observer core.Observer
	// CheckpointEvery, when non-zero, makes the worker serialize each
	// in-flight engine's state at every CheckpointEvery-cycle boundary and
	// ship it to the scheduler through GroupRun.OnCheckpoint, so a requeued
	// group resumes on a survivor instead of restarting from cycle 0.
	CheckpointEvery uint64
}

// LoopbackWorker runs key-groups in-process through the standard sweep
// machinery against its own trace cache. It is the loopback transport of
// the sweep service: Session.Sweep runs its job platform over a pool of
// them, and tests use Kill to exercise the requeue path without a network.
type LoopbackWorker struct {
	opts     LoopbackOptions
	traces   *tracecache.Cache
	killed   chan struct{}
	killOnce sync.Once
	resumed  atomic.Uint64 // simulated cycles skipped by resuming checkpoints
}

// NewLoopbackWorker builds one in-process worker.
func NewLoopbackWorker(opts LoopbackOptions) *LoopbackWorker {
	w := &LoopbackWorker{opts: opts, traces: opts.Traces, killed: make(chan struct{})}
	if w.traces == nil && !opts.DisableCache {
		// A private per-worker cache, like a remote host's: groups assigned
		// to this worker share it across RunGroup calls.
		w.traces = tracecache.New(tracecache.Config{})
	}
	return w
}

// Traces returns the worker's trace cache (nil when caching is disabled) —
// tests assert generation counts per simulated host through it.
func (w *LoopbackWorker) Traces() *tracecache.Cache { return w.traces }

// ResumedCycles returns the total simulated cycles this worker skipped by
// resuming points from shipped checkpoints instead of cycle 0 — the
// Stats.Seeds-style counter tests assert requeue-resume through.
func (w *LoopbackWorker) ResumedCycles() uint64 { return w.resumed.Load() }

// Kill tears the worker down, aborting any in-flight group (its completed
// points stand; the scheduler requeues the rest) and refusing future
// assignments — the loopback equivalent of a worker host dying.
func (w *LoopbackWorker) Kill() {
	w.killOnce.Do(func() { close(w.killed) })
}

// RunGroup implements Worker.
func (w *LoopbackWorker) RunGroup(ctx context.Context, job *Job, gr GroupRun, emit func(PointResult)) error {
	select {
	case <-w.killed:
		return errKilled
	default:
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-w.killed:
			cancel()
		case <-stop:
		}
	}()

	indices := gr.Indices
	pts := make([]sweep.Point, len(indices))
	for i, idx := range indices {
		pts[i] = job.Points[idx]
	}
	resume := decodeResume(len(indices), func(i int) []byte { return gr.Checkpoints[indices[i]] }, nil)
	r := sweep.Runner{
		Workload:     job.Profile,
		Instructions: job.Instructions,
		Parallelism:  w.opts.Parallelism,
		Traces:       w.traces,
		DisableCache: w.opts.DisableCache,
		Resume:       resume,
		// Counted on successful restore only, so the counter never reports
		// a resume that silently degraded to a fresh run.
		OnResume: func(_ int, cycles uint64) { w.resumed.Add(cycles) },
		OnResult: func(i int, res sweep.Result) {
			select {
			case <-w.killed:
				// A dead host's unsent results never arrive: once killed,
				// the worker emits nothing more and the scheduler reruns
				// the remainder elsewhere.
				return
			default:
			}
			if abortedResult(res) {
				// A point cut short by cancellation is not a real outcome:
				// withhold it so the scheduler requeues the point instead
				// of recording a poisoned result.
				return
			}
			emit(PointResult{Index: indices[i], Result: res})
		},
	}
	if w.opts.CheckpointEvery > 0 && gr.OnCheckpoint != nil {
		r.CheckpointEvery = w.opts.CheckpointEvery
		r.OnCheckpoint = func(i int, cp *core.Checkpoint) {
			select {
			case <-w.killed:
				return // dead hosts ship nothing
			default:
			}
			if data, err := cp.Encode(); err == nil {
				gr.OnCheckpoint(indices[i], data)
			}
		}
	}
	if job.TelemetryEvery > 0 && gr.OnTelemetry != nil {
		r.TelemetryEvery = job.TelemetryEvery
		r.OnTelemetry = func(i int, snap core.IntervalSnapshot) {
			select {
			case <-w.killed:
				return // dead hosts ship nothing
			default:
			}
			// Remap the group-local slot to the job-wide point index, like
			// the Observer below.
			snap.Core = indices[i]
			gr.OnTelemetry(indices[i], snap)
		}
	}
	if w.opts.Observer != nil {
		r.Observer = core.ObserverFunc(func(p core.Progress) {
			if p.Core >= 0 && p.Core < len(indices) {
				p.Core = indices[p.Core]
			}
			w.opts.Observer.Progress(p)
		})
	}
	if _, err := r.Run(gctx, pts); err != nil {
		select {
		case <-w.killed:
			return fmt.Errorf("%w: %v", errKilled, err)
		default:
		}
		return err
	}
	return nil
}
