// Live telemetry fan-out for the job platform. Every running job's engines
// emit core.IntervalSnapshot windows at the platform's telemetry cadence
// (see Options.TelemetryEvery); the platform retains the most recent
// snapshots in a bounded per-job ring so any number of clients — including
// ones that connect mid-run — can watch one job concurrently.
//
// The broker never blocks the simulation: snapshots append to the ring
// under the platform lock and waiters are woken, but delivery happens on
// each client's own goroutine from a batch copied out of the ring. A client
// too slow to keep up simply finds the ring has wrapped past it on its next
// read; the gap is counted (Metrics.TelemetryDropped) and the stream
// continues from the oldest retained snapshot. Telemetry is ephemeral by
// design: it is never journaled, a recovered job's stream starts empty, and
// a terminal job's ring serves only what it still holds.
package jobd

import (
	"context"

	"repro/internal/core"
)

// DefaultTelemetryRing is the per-job snapshot ring capacity when
// Options.TelemetryRing is zero. At the default cadence one slot covers
// 65536 cycles, so 256 slots buffer several million cycles of history for
// late-joining watchers.
const DefaultTelemetryRing = 256

// telemetryEvery returns the effective snapshot cadence in major cycles.
func (p *Platform) telemetryEvery() uint64 {
	if p.opts.TelemetryEvery > 0 {
		return p.opts.TelemetryEvery
	}
	return core.DefaultObserverInterval
}

// onTelemetry is the GroupRun sink for one job: it stamps the job-wide
// point index, appends the snapshot to the job's ring (evicting the oldest
// when full) and wakes stream waiters. Snapshots for points that already
// have a result are duplicates from a requeued group rerunning finished
// work and drop here, exactly like duplicate results. In-memory jobs have
// no ring: their snapshots go to the job's own OnTelemetry hook, called
// outside the lock so the scheduler never blocks on a consumer.
func (p *Platform) onTelemetry(j *job, index int, snap core.IntervalSnapshot) {
	p.mu.Lock()
	if j.state.Terminal() || j.ctx.Err() != nil ||
		index < 0 || index >= len(j.results) || j.results[index] != nil {
		p.mu.Unlock()
		return
	}
	snap.Core = index
	if j.local != nil {
		p.mu.Unlock()
		if fn := j.sj.OnTelemetry; fn != nil {
			fn(index, snap)
		}
		return
	}
	defer p.mu.Unlock()
	j.telRing = append(j.telRing, snap)
	j.telSeq++
	if over := len(j.telRing) - p.opts.TelemetryRing; over > 0 {
		j.telRing = append(j.telRing[:0], j.telRing[over:]...)
	}
	p.telemetrySnaps++
	p.broadcastLocked(j)
}

// StreamTelemetry calls fn for every interval snapshot the job emits,
// starting from the oldest snapshot still buffered (a late joiner replays
// the ring, then follows live), until the job reaches a terminal state
// (which it returns with the job's error string). fn runs without the
// platform lock; its error aborts the stream. A consumer slower than the
// emission rate loses the snapshots the ring wrapped past while it was
// busy — the loss is added to Metrics.TelemetryDropped and the stream
// resumes from the oldest retained snapshot, so one stalled watcher never
// applies backpressure to the engines or to other watchers.
func (p *Platform) StreamTelemetry(ctx context.Context, tenant, id string, fn func(core.IntervalSnapshot) error) (State, string, error) {
	p.mu.Lock()
	j := p.lookupLocked(tenant, id)
	if j == nil {
		p.mu.Unlock()
		return "", "", ErrUnknownJob
	}
	// Subscribe at the ring's oldest retained snapshot: history the ring
	// already evicted was never available to this client and does not count
	// as a drop.
	next := j.telSeq - uint64(len(j.telRing))
	p.telemetryClients++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.telemetryClients--
		p.mu.Unlock()
	}()
	for {
		p.mu.Lock()
		start := j.telSeq - uint64(len(j.telRing))
		if next < start {
			p.telemetryDropped += start - next
			next = start
		}
		batch := append([]core.IntervalSnapshot(nil), j.telRing[next-start:]...)
		next = j.telSeq
		state, errStr := j.state, j.err
		change := j.change
		p.mu.Unlock()
		for _, s := range batch {
			if err := fn(s); err != nil {
				return state, errStr, err
			}
		}
		// state and the ring were snapshotted under one lock: a terminal
		// state means no further snapshots can append (onTelemetry drops
		// after finalize), so the batch above was the last of it.
		if state.Terminal() {
			return state, errStr, nil
		}
		select {
		case <-ctx.Done():
			return state, errStr, ctx.Err()
		case <-p.ctx.Done():
			return state, errStr, ErrClosed
		case <-change:
		}
	}
}
