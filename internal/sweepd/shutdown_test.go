package sweepd_test

import (
	"context"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobd"
	"repro/internal/sweepd"
)

// TestCoordinatorCloseDrainsGoroutines: closing the coordinator while a
// client job is mid-flight, then the job platform behind the HTTP door,
// must deterministically cancel and drain every goroutine the service
// spawned — accept loops, per-connection handlers, heartbeats, scheduler
// requeue machinery, result streams — and the worker and client processes
// must unwind too. The assertion is a hard
// goroutine count: everything the test started is gone afterwards, so a
// leaked conn handler racing Close fails loudly here instead of
// accumulating in a long-lived daemon.
func TestCoordinatorCloseDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{})
	hsTimedOut := make(chan struct{})
	var once, hsOnce sync.Once
	coord := sweepd.NewCoordinator()
	coord.HandshakeTimeout = 150 * time.Millisecond
	coord.Logf = func(format string, args ...any) {
		if strings.Contains(format, "sweepd.handshake_timeout") ||
			(len(args) > 0 && containsAny(args, "sweepd.handshake_timeout")) {
			hsOnce.Do(func() { close(hsTimedOut) })
		}
	}
	p, err := jobd.New(jobd.Options{Pool: coord, Logf: func(format string, args ...any) {
		if containsAny(args, "jobd.group_dispatched") {
			once.Do(func() { close(started) })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	coord.OnWorkersChanged = p.Kick
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())

	// A peer that connects and never speaks: without the handshake
	// deadline, its handler goroutine would sit in the hello read until
	// Close and trip the goroutine-count assertion below. It must instead
	// be reaped on its own, while the coordinator is still running.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	select {
	case <-hsTimedOut:
	case <-time.After(10 * time.Second):
		t.Fatal("silent connection was never reaped by the handshake deadline")
	}

	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			sweepd.Work(wctx, addr, sweepd.WorkerOptions{Name: "w" + itoa(i+1)}) //nolint:errcheck
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A client job big enough to still be running when Close lands.
	job := testJob(t)
	job.Instructions = 500_000
	clientErr := make(chan error, 1)
	go func() {
		_, err := sweepHTTP(context.Background(), &jobd.Client{Server: srv.URL, HTTPClient: srv.Client()}, job, nil)
		clientErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Race Close against the in-flight job: it must abort the job's
	// groups, not wedge behind them; closing the platform then ends the
	// client's result stream.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-clientErr:
		if err == nil {
			t.Fatal("client job reported success across a coordinator shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client still blocked 10s after the service closed")
	}
	srv.Close()
	stop()
	workers.Wait()

	// Everything drained: the goroutine count settles back to the baseline
	// (small transient slack for runtime/netpoll goroutines still parking).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across Close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func containsAny(args []any, sub string) bool {
	for _, a := range args {
		if s, ok := a.(string); ok && strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
