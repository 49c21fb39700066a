package tracecache

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/funcsim"
	"repro/internal/workload"
)

// familyTC is the default trace configuration with predictor pred and
// wrong-path length wpl.
func familyTC(pred bpred.Config, wpl int) funcsim.TraceConfig {
	tc := defaultTC()
	tc.Predictor = pred
	tc.WrongPathLen = wpl
	return tc
}

// containerBytes is t's delta-compressed container encoding.
func containerBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteContainer(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTrace fails t unless got is exactly want: records, metadata and
// container bytes.
func sameTrace(t *testing.T, what string, got, want *Trace) {
	t.Helper()
	if got.Key() != want.Key() || got.StartPC() != want.StartPC() ||
		got.Records() != want.Records() || got.WrongPath() != want.WrongPath() || got.Bits() != want.Bits() {
		t.Fatalf("%s: (records, wrong path, bits) = (%d, %d, %d), want (%d, %d, %d)", what,
			got.Records(), got.WrongPath(), got.Bits(), want.Records(), want.WrongPath(), want.Bits())
	}
	if !reflect.DeepEqual(got.recs, want.recs) {
		t.Fatalf("%s: records differ", what)
	}
	if !bytes.Equal(containerBytes(t, got), containerBytes(t, want)) {
		t.Fatalf("%s: container bytes differ", what)
	}
}

// reference generates k directly, outside any cache.
func reference(t *testing.T, k Key) *Trace {
	t.Helper()
	tr, err := generate(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDeriveMatchesGenerate: for every profile and three predictors, each
// shorter wrong-path variant derived from a donor at length 68 is exactly
// the trace generation produces for it.
func TestDeriveMatchesGenerate(t *testing.T) {
	const limit = 10000
	const donorLen = 68
	lens := []int{1, 20, 32, 36, 40, 67}
	pht := defaultTC().Predictor
	pht.PHTSize = 1024
	btb := defaultTC().Predictor
	btb.BTBEntries = 128
	preds := map[string]bpred.Config{"default": defaultTC().Predictor, "pht=1024": pht, "btb=128": btb}
	ctx := context.Background()
	for _, p := range workload.Profiles() {
		for _, name := range []string{"default", "pht=1024", "btb=128"} {
			pred := preds[name]
			c := New(Config{})
			if _, err := c.Get(ctx, p, familyTC(pred, donorLen), limit); err != nil {
				t.Fatal(err)
			}
			var shortest, longest uint64
			for _, wpl := range lens {
				what := p.Name + "/" + name + "/wpl=" + strconv.Itoa(wpl)
				got, err := c.Get(ctx, p, familyTC(pred, wpl), limit)
				if err != nil {
					t.Fatal(err)
				}
				sameTrace(t, what, got, reference(t, KeyFor(p, familyTC(pred, wpl), limit)))
				if wpl == lens[0] {
					shortest = got.WrongPath()
				}
				longest = got.WrongPath()
			}
			if shortest >= longest {
				t.Fatalf("%s/%s: wrong-path records do not grow with the block length (%d at %d, %d at %d)",
					p.Name, name, shortest, lens[0], longest, lens[len(lens)-1])
			}
			if st := c.Stats(); st.Generations != 1 || st.Derivations != uint64(len(lens)) {
				t.Fatalf("%s/%s: %d generations and %d derivations, want 1 and %d",
					p.Name, name, st.Generations, st.Derivations, len(lens))
			}
		}
	}
}

// registerInFlight installs an entry for k as Get's miss path does, but
// without producing its trace: the test runs c.fill(ctx, e, nil) when it
// wants the generation to happen.
func registerInFlight(c *Cache, k Key) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &entry{key: k, done: make(chan struct{})}
	c.entries[k] = e
	if c.joinFamilyLocked(e) != nil {
		panic("registerInFlight: key has a donor")
	}
	return e
}

// waitRegistered blocks until some entry other than old holds k.
func waitRegistered(t *testing.T, c *Cache, k Key, old *entry) *entry {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		e := c.entries[k]
		c.mu.Unlock()
		if e != nil && e != old {
			return e
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("key never registered")
	return nil
}

// checkSettled fails t unless the cache holds exactly keys, every entry is
// finished and indexed in its family, and no family lists anything else.
func checkSettled(t *testing.T, c *Cache, keys ...Key) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != len(keys) {
		t.Fatalf("cache holds %d entries, want %d", len(c.entries), len(keys))
	}
	members := 0
	for _, k := range keys {
		e := c.entries[k]
		if e == nil {
			t.Fatalf("key with wrong-path length %d missing", k.TC.WrongPathLen)
		}
		select {
		case <-e.done:
		default:
			t.Fatalf("entry with wrong-path length %d still in flight", k.TC.WrongPathLen)
		}
		fk, _ := familyOf(k)
		found := false
		for _, m := range c.families[fk] {
			found = found || m == e
		}
		if !found {
			t.Fatalf("entry with wrong-path length %d missing from its family", k.TC.WrongPathLen)
		}
	}
	for _, ms := range c.families {
		members += len(ms)
	}
	if members != len(keys) {
		t.Fatalf("families list %d entries, want %d", members, len(keys))
	}
}

// TestDeriveFallsBackWhenDonorCancelled: a waiter whose donor's generation
// is cancelled mid-flight generates its own trace.
func TestDeriveFallsBackWhenDonorCancelled(t *testing.T) {
	p := gzipProfile(t)
	const limit = 8000
	pred := defaultTC().Predictor
	long, short := KeyFor(p, familyTC(pred, 68), limit), KeyFor(p, familyTC(pred, 20), limit)
	c := New(Config{})
	donor := registerInFlight(c, long)

	var (
		wg            sync.WaitGroup
		waiter, again *Trace
		werr, aerr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiter, werr = c.Get(context.Background(), p, short.TC, limit)
	}()
	waitRegistered(t, c, short, nil)
	// A second request for the short key waits on the first one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		again, aerr = c.Get(context.Background(), p, short.TC, limit)
	}()
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.fill(dctx, donor, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("donor generation err = %v, want context.Canceled", err)
	}
	wg.Wait()
	if werr != nil || aerr != nil {
		t.Fatalf("waiters failed: %v, %v", werr, aerr)
	}
	want := reference(t, short)
	sameTrace(t, "fallback", waiter, want)
	sameTrace(t, "second waiter", again, want)
	if st := c.Stats(); st.Generations != 1 || st.Derivations != 0 {
		t.Fatalf("%d generations and %d derivations, want 1 and 0", st.Generations, st.Derivations)
	}
	checkSettled(t, c, short)
}

// TestDeriveFallsBackWhenDonorLeavesMemory: a donor evicted (dropped, or
// spilled) between a waiter choosing it and the waiter copying from it
// sends the waiter to generation.
func TestDeriveFallsBackWhenDonorLeavesMemory(t *testing.T) {
	p := gzipProfile(t)
	const limit = 8000
	pred := defaultTC().Predictor
	long, short := KeyFor(p, familyTC(pred, 68), limit), KeyFor(p, familyTC(pred, 20), limit)
	for _, spill := range []bool{false, true} {
		cfg := Config{}
		if spill {
			cfg.SpillDir = t.TempDir()
		}
		c := New(cfg)
		ctx := context.Background()
		if _, err := c.Get(ctx, p, long.TC, limit); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		e := &entry{key: short, done: make(chan struct{})}
		c.entries[short] = e
		donor := c.joinFamilyLocked(e)
		if donor == nil || donor.key != long {
			c.mu.Unlock()
			t.Fatal("resident longer variant not chosen as donor")
		}
		c.evictLocked(donor)
		c.mu.Unlock()

		var wg sync.WaitGroup
		var again *Trace
		var aerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			again, aerr = c.Get(ctx, p, short.TC, limit)
		}()
		got, err := c.fill(ctx, e, donor)
		wg.Wait()
		if err != nil || aerr != nil {
			t.Fatalf("spill=%v: %v, %v", spill, err, aerr)
		}
		want := reference(t, short)
		sameTrace(t, "fallback", got, want)
		sameTrace(t, "second waiter", again, want)
		if st := c.Stats(); st.Generations != 2 || st.Derivations != 0 {
			t.Fatalf("spill=%v: %d generations and %d derivations, want 2 and 0", spill, st.Generations, st.Derivations)
		}
		if spill {
			checkSettled(t, c, long, short)
		} else {
			checkSettled(t, c, short)
		}
	}
}

// TestDeriveWaiterCancelled: a waiter cancelled while its donor is still
// generating returns ctx.Err() and leaves nothing behind; a second request
// for its key retries and derives once the donor finishes.
func TestDeriveWaiterCancelled(t *testing.T) {
	p := gzipProfile(t)
	const limit = 8000
	pred := defaultTC().Predictor
	long, short := KeyFor(p, familyTC(pred, 68), limit), KeyFor(p, familyTC(pred, 20), limit)
	c := New(Config{})
	donor := registerInFlight(c, long)

	wctx, cancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() {
		_, err := c.Get(wctx, p, short.TC, limit)
		werr <- err
	}()
	cancelled := waitRegistered(t, c, short, nil)
	var again *Trace
	var aerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		again, aerr = c.Get(context.Background(), p, short.TC, limit)
	}()
	cancel()
	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	// The cancelled entry is gone (or already replaced by the retry).
	c.mu.Lock()
	leaked := c.entries[short] == cancelled
	c.mu.Unlock()
	if leaked {
		t.Fatal("cancelled waiter's entry left in the cache")
	}
	if _, err := c.fill(context.Background(), donor, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if aerr != nil {
		t.Fatal(aerr)
	}
	sameTrace(t, "retried waiter", again, reference(t, short))
	if st := c.Stats(); st.Generations != 1 || st.Derivations != 1 {
		t.Fatalf("%d generations and %d derivations, want 1 and 1", st.Generations, st.Derivations)
	}
	checkSettled(t, c, long, short)
}

// TestPrefetchFamilies: prefetching registers each multi-key family's
// longest key at once, so a shorter member requested first still derives;
// single-key families and uncacheable budgets are left alone.
func TestPrefetchFamilies(t *testing.T) {
	p := gzipProfile(t)
	const limit = 8000
	pred := defaultTC().Predictor
	other := pred
	other.PHTSize = 1024
	long, short := KeyFor(p, familyTC(pred, 68), limit), KeyFor(p, familyTC(pred, 20), limit)
	alone := KeyFor(p, familyTC(other, 20), limit)
	c := New(Config{MaxInstructions: limit})
	ctx := context.Background()
	wait := c.PrefetchFamilies(ctx, []Key{short, alone, long, short, KeyFor(p, familyTC(pred, 68), limit+1), KeyFor(p, familyTC(pred, 20), limit+1)})
	c.mu.Lock()
	_, longIn := c.entries[long]
	n := len(c.entries)
	c.mu.Unlock()
	if !longIn || n != 1 {
		t.Fatalf("prefetch registered %d entries (longest present: %v), want only the longest", n, longIn)
	}
	got, err := c.Get(ctx, p, short.TC, limit)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "derived from prefetch", got, reference(t, short))
	wait()
	if _, err := c.Get(ctx, p, long.TC, limit); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Generations != 1 || st.Derivations != 1 {
		t.Fatalf("%d generations and %d derivations, want 1 and 1", st.Generations, st.Derivations)
	}
	// Prefetching what the cache already holds starts nothing.
	c.PrefetchFamilies(ctx, []Key{short, long})()
	checkSettled(t, c, long, short)
}

// TestFamilyBoundaries: only the wrong-path length may differ within a
// family; perfect-BP keys, other predictors and other budgets never donate.
func TestFamilyBoundaries(t *testing.T) {
	p := gzipProfile(t)
	ctx := context.Background()
	c := New(Config{})
	pred := defaultTC().Predictor
	if _, err := c.Get(ctx, p, familyTC(pred, 68), 3000); err != nil {
		t.Fatal(err)
	}
	other := pred
	other.PHTSize = 1024
	perfect := familyTC(pred, 20)
	perfect.PerfectBP = true
	for _, tc := range []funcsim.TraceConfig{familyTC(other, 20), perfect} {
		if _, err := c.Get(ctx, p, tc, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(ctx, p, familyTC(pred, 20), 2000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Generations != 4 || st.Derivations != 0 {
		t.Fatalf("%d generations and %d derivations, want 4 and 0", st.Generations, st.Derivations)
	}
}

// TestDispatchOrder: each family's longest key leads, families in
// first-seen order, then everything else in input order.
func TestDispatchOrder(t *testing.T) {
	p := workload.Profile{Name: "x"}
	pred := defaultTC().Predictor
	other := pred
	other.PHTSize = 1024
	perfect := familyTC(pred, 20)
	perfect.PerfectBP = true
	keys := []Key{
		KeyFor(p, familyTC(pred, 36), 1),  // 0: family A
		KeyFor(p, familyTC(other, 20), 1), // 1: family B (alone)
		KeyFor(p, familyTC(pred, 68), 1),  // 2: family A, longest
		KeyFor(p, perfect, 1),             // 3: no family
		KeyFor(p, familyTC(pred, 32), 1),  // 4: family A
		KeyFor(p, familyTC(pred, 68), 1),  // 5: duplicate of 2
	}
	want := []int{2, 1, 3, 0, 4, 5}
	if got := DispatchOrder(keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("DispatchOrder = %v, want %v", got, want)
	}
	if got := DispatchOrder(nil); len(got) != 0 {
		t.Fatalf("DispatchOrder(nil) = %v", got)
	}
}
