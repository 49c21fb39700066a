// Go client for the job platform's HTTP front door. Used by the resim CLI
// (`resim jobs ...`) and the Session.SubmitRemote job handle.
package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// Client talks to one job service.
type Client struct {
	// Server is the service base URL, e.g. "http://coordinator:8080".
	Server string
	// Token is the tenant's bearer token (empty in auth-disabled mode).
	Token string
	// HTTPClient overrides http.DefaultClient (tests inject the
	// httptest server's client).
	HTTPClient *http.Client
	// Retry, when configured, makes the unary API calls (Submit, Status,
	// List, Cancel) retry 429s and transient network errors with jittered
	// exponential backoff, honoring the server's Retry-After advice. The
	// zero value keeps the historical single-shot behavior. Streaming
	// calls never retry — reconnecting a half-consumed stream is the
	// caller's decision.
	Retry RetryPolicy
}

// RetryPolicy configures the client's retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call; 0 or 1 disables
	// retries.
	MaxAttempts int
	// Base and Max bound the jittered exponential backoff between tries
	// (defaults 250ms and 5s). A 429 carrying Retry-After overrides the
	// computed delay with the server's advice.
	Base time.Duration
	Max  time.Duration
	// Seed seeds the backoff jitter (see faults.NewBackoff); retry
	// schedules are deterministic per (Seed, attempt).
	Seed int64
	// OnRetry, when non-nil, observes every scheduled retry.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After advice in seconds (0 when
	// the response carried none).
	RetryAfter int
}

// Error renders the status code and the server's error message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("jobd: server returned %d: %s", e.Code, e.Msg)
}

// IsRetryable reports whether the request was refused by admission
// control (HTTP 429) and should be resubmitted after a backoff.
func (e *StatusError) IsRetryable() bool { return e.Code == http.StatusTooManyRequests }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one API request and decodes a JSON response into out,
// retrying per c.Retry. Request bodies are marshaled once and replayed
// from memory on each attempt, so retrying a POST is safe at this layer;
// whether it is safe end-to-end is the policy's call (Submit retries only
// 429s and connection-refused, where the server provably did no work).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	bo := faults.NewBackoff(c.Retry.Base, c.Retry.Max, c.Retry.Seed)
	if c.Retry.Base <= 0 {
		bo = faults.NewBackoff(250*time.Millisecond, 5*time.Second, c.Retry.Seed)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		lastErr = c.doOnce(ctx, method, path, data, body != nil, out)
		if lastErr == nil || attempt >= attempts {
			return lastErr
		}
		delay, ok := retryDelay(lastErr, method, bo)
		if !ok {
			return lastErr
		}
		if f := c.Retry.OnRetry; f != nil {
			f(attempt, lastErr, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// doOnce issues a single attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, hasBody bool, out any) error {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Server+path, rd)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryDelay classifies err and, when retryable for this method, returns
// the delay before the next attempt. 429s are always retryable — the
// server refused the work whole — and the server's Retry-After advice
// overrides the backoff. Connection-refused is always retryable (nothing
// reached the server). Other transport errors — resets, unexpected EOFs,
// timeouts — may have landed on the server, so they retry only for
// idempotent methods.
func retryDelay(err error, method string, bo *faults.Backoff) (time.Duration, bool) {
	var se *StatusError
	if errors.As(err, &se) {
		if !se.IsRetryable() {
			return 0, false
		}
		if se.RetryAfter > 0 {
			return time.Duration(se.RetryAfter) * time.Second, true
		}
		return bo.Next(), true
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return bo.Next(), true
	}
	idempotent := method == http.MethodGet || method == http.MethodDelete || method == http.MethodHead
	if !idempotent {
		return 0, false
	}
	var ne net.Error
	switch {
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF),
		errors.As(err, &ne) && ne.Timeout():
		return bo.Next(), true
	}
	return 0, false
}

func apiError(resp *http.Response) error {
	var eb errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
		eb.Error = string(bytes.TrimSpace(data))
	}
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return &StatusError{Code: resp.StatusCode, Msg: eb.Error, RetryAfter: ra}
}

// Submit submits a job, returning its acknowledged (durable) status.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches a job's status with per-point progress.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches the tenant's jobs, oldest first.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var jobs []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &jobs)
	return jobs, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Results follows the job's NDJSON result stream, calling fn per completed
// point in completion order, and returns the job's terminal state. It
// blocks until the job finishes (cancel via ctx). A stream that ends
// without the terminal line reports an error — the caller cannot know the
// job finished.
func (c *Client) Results(ctx context.Context, id string, fn func(*sweepd.WireResult) error) (State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+"/v1/jobs/"+id+"/results", nil)
	if err != nil {
		return "", err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var line struct {
			Result *sweepd.WireResult `json:"result"`
			Done   bool               `json:"done"`
			State  State              `json:"state"`
			Err    string             `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("jobd: corrupt stream line: %w", err)
		}
		switch {
		case line.Result != nil:
			if fn != nil {
				if err := fn(line.Result); err != nil {
					return "", err
				}
			}
		case line.Done:
			// A failure reason is an error; a cancellation note is just
			// color on a state the caller inspects anyway.
			if line.State == StateFailed && line.Err != "" {
				return line.State, fmt.Errorf("jobd: job %s failed: %s", id, line.Err)
			}
			return line.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("jobd: result stream for %s ended without a terminal line", id)
}

// Collect follows the job's result stream to its end and returns the
// results in point order, each rebuilt around its point's configuration in
// job — the job as submitted, kept client-side, so a result compares
// byte-for-byte with a local sweep's. emit, when non-nil, sees every newly
// streamed result with the running received/total counts. A job that ends
// in any state but done is an error.
func (c *Client) Collect(ctx context.Context, id string, job *sweepd.Job, emit func(res sweepd.PointResult, done, total int)) ([]sweep.Result, error) {
	results := make([]sweep.Result, len(job.Points))
	got := make([]bool, len(job.Points))
	received := 0
	state, err := c.Results(ctx, id, func(wr *sweepd.WireResult) error {
		if wr.Index < 0 || wr.Index >= len(results) {
			return fmt.Errorf("jobd: job %s streamed result for unknown point %d", id, wr.Index)
		}
		if got[wr.Index] {
			return nil
		}
		got[wr.Index] = true
		received++
		results[wr.Index] = resultOf(job, wr)
		if emit != nil {
			emit(sweepd.PointResult{Index: wr.Index, Result: results[wr.Index]}, received, len(results))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if state != StateDone {
		return nil, fmt.Errorf("jobd: job %s ended %s", id, state)
	}
	if received != len(results) {
		return nil, fmt.Errorf("jobd: job %s finished with %d of %d results", id, received, len(results))
	}
	return results, nil
}

// Sweep submits job, follows it to its end and returns the results in
// point order: Submit then Collect, the blocking form Session.SweepRemote
// uses. emit is as for Collect. job.OnTelemetry, when set, receives the
// job's live snapshot stream (at the service's cadence, Core holding the
// point index) fire-and-forget, and every snapshot is delivered before
// Sweep returns. Cancelling ctx cancels the job service-side. The service
// queues a job while it has no live worker, so bound ctx when the worker
// fleet may be empty.
func (c *Client) Sweep(ctx context.Context, job *sweepd.Job, emit func(res sweepd.PointResult, done, total int)) ([]sweep.Result, error) {
	wj, err := sweepd.WireJobOf(job)
	if err != nil {
		return nil, err
	}
	st, err := c.Submit(ctx, SubmitRequest{Profile: &job.Profile,
		Instructions: job.Instructions, Points: wj.Points})
	if err != nil {
		return nil, err
	}
	tctx, stopTelemetry := context.WithCancel(ctx)
	defer stopTelemetry()
	telemetryDone := make(chan struct{})
	go func() {
		defer close(telemetryDone)
		if job.OnTelemetry == nil {
			return
		}
		c.Telemetry(tctx, st.ID, func(s core.IntervalSnapshot) error { //nolint:errcheck // fire-and-forget, like in-process delivery
			job.OnTelemetry(s.Core, s)
			return nil
		})
	}()
	res, err := c.Collect(ctx, st.ID, job, emit)
	if err != nil {
		stopTelemetry()
	}
	// On success the telemetry stream ends with the job's terminal line.
	<-telemetryDone
	if ctx.Err() != nil {
		// The stream died with ctx; the job would otherwise run on.
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		c.Cancel(cctx, st.ID) //nolint:errcheck // best effort: the caller already has its answer
		return nil, ctx.Err()
	}
	return res, err
}

// Telemetry follows the job's NDJSON telemetry stream, calling fn per live
// interval snapshot, and returns the job's terminal state. A client
// attaching mid-job first replays the server's buffered snapshot ring, then
// follows live until the job finishes (cancel via ctx). Snapshots the
// server's ring wrapped past while this client was slow are simply absent
// from the stream; Seq gaps within one point reveal the loss.
func (c *Client) Telemetry(ctx context.Context, id string, fn func(core.IntervalSnapshot) error) (State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+"/v1/jobs/"+id+"/telemetry", nil)
	if err != nil {
		return "", err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var line struct {
			Telemetry *core.IntervalSnapshot `json:"telemetry"`
			Done      bool                   `json:"done"`
			State     State                  `json:"state"`
			Err       string                 `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("jobd: corrupt telemetry line: %w", err)
		}
		switch {
		case line.Telemetry != nil:
			if fn != nil {
				if err := fn(*line.Telemetry); err != nil {
					return "", err
				}
			}
		case line.Done:
			if line.State == StateFailed && line.Err != "" {
				return line.State, fmt.Errorf("jobd: job %s failed: %s", id, line.Err)
			}
			return line.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("jobd: telemetry stream for %s ended without a terminal line", id)
}

// Trace follows the job's NDJSON lifecycle-trace stream, calling fn per
// recorded span, and returns the job's terminal state. A client attaching
// mid-job first replays the server's buffered span log, then follows live
// until the job finishes (cancel via ctx). Spans the bounded log evicted
// before this client attached are simply absent; Seq gaps reveal the loss.
func (c *Client) Trace(ctx context.Context, id string, fn func(TraceSpan) error) (State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return "", err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var line struct {
			Span  *TraceSpan `json:"span"`
			Done  bool       `json:"done"`
			State State      `json:"state"`
			Err   string     `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("jobd: corrupt trace line: %w", err)
		}
		switch {
		case line.Span != nil:
			if fn != nil {
				if err := fn(*line.Span); err != nil {
					return "", err
				}
			}
		case line.Done:
			if line.State == StateFailed && line.Err != "" {
				return line.State, fmt.Errorf("jobd: job %s failed: %s", id, line.Err)
			}
			return line.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("jobd: trace stream for %s ended without a terminal line", id)
}
