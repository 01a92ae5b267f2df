package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scotty/internal/ops"
)

// TestRobustnessFlagValidation pins the flag contract: malformed or
// inconsistent robustness flags fail fast with exit 2 instead of silently
// degrading.
func TestRobustnessFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-backpressure", "bogus", "-demo", "10"},
		{"-backpressure", "shed", "-keyed", "-demo", "10"},
		{"-dlq-dir", t.TempDir(), "-demo", "10"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("scotty %v exited %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

// slowWriter throttles every Write, modeling a consumer slower than the
// stream; the ingest edge in front of the operator must shed instead of
// queuing without bound.
type slowWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

var droppedSummary = regexp.MustCompile(`backpressure: dropped (\d+) events \(drop-oldest\)`)

// TestBackpressureShedsUnderOverload overloads a -backpressure run with a
// fast stream against a slow output and asserts events were dropped by the
// policy — and reported, never silently.
func TestBackpressureShedsUnderOverload(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&in, "%d,1\n", i)
	}
	var out slowWriter
	var errOut strings.Builder
	args := []string{"-window", "tumbling", "-length", "5", "-agg", "sum",
		"-watermark", "10", "-backpressure", "drop-oldest"}
	if code := run(context.Background(), args, strings.NewReader(in.String()), &out, &errOut); code != 0 {
		t.Fatalf("scotty exited %d: %s", code, errOut.String())
	}
	m := droppedSummary.FindStringSubmatch(errOut.String())
	if m == nil {
		t.Fatalf("no drop summary on stderr:\n%s", errOut.String())
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("drop summary reports %s dropped events", m[1])
	}
}

// flakyWriter rejects the first failCalls writes, then heals. With the
// breaker's 5-failure trip threshold, call 6 is the half-open probe that
// must succeed and close it again.
type flakyWriter struct {
	mu        sync.Mutex
	calls     int
	failCalls int
	b         strings.Builder
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failCalls {
		return 0, fmt.Errorf("injected sink failure %d", f.calls)
	}
	return f.b.Write(p)
}

func (f *flakyWriter) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.b.String()
}

var breakerSummary = regexp.MustCompile(`breaker: (\d+) rows dead-lettered \(trips (\d+), recoveries (\d+)\)`)

// TestBreakerDLQWithFlakyOutput drives -breaker -dlq-dir against a writer
// that rejects its first writes: the breaker must trip, the rejected rows
// must land in the DLQ with exact counts, and after the cooldown the
// half-open probe must recover the sink so the tail of the stream is
// delivered normally. Keyed rows take the same guarded egress.
func TestBreakerDLQWithFlakyOutput(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"unkeyed", nil},
		{"keyed", []string{"-keyed"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dlqDir := t.TempDir()
			pr, pw := io.Pipe()
			out := &flakyWriter{failCalls: 5}
			var errOut syncBuffer
			done := make(chan int, 1)
			go func() {
				done <- run(context.Background(),
					append([]string{"-window", "tumbling", "-length", "2000", "-agg", "sum",
						"-breaker", "-dlq-dir", dlqDir}, mode.args...),
					pr, out, &errOut)
				// A run that exits early fails the writes below instead of
				// leaving them blocked.
				pr.Close()
			}()

			// Phase 1: enough stream to emit several result batches into the
			// failing writer — retries exhaust, the breaker trips, batches
			// dead-letter.
			for i := 0; i < 200; i++ {
				if _, err := fmt.Fprintf(pw, "%d,1\n", i*100); err != nil {
					t.Fatal(err)
				}
			}
			// Let the breaker's 100ms cooldown elapse while the stream is quiet.
			time.Sleep(150 * time.Millisecond)
			// Phase 2: the writer has healed; the first emission is the
			// half-open probe, which must succeed, recover the breaker, and
			// deliver the tail.
			for i := 200; i < 400; i++ {
				if _, err := fmt.Fprintf(pw, "%d,1\n", i*100); err != nil {
					t.Fatal(err)
				}
			}
			pw.Close()
			if code := <-done; code != 0 {
				t.Fatalf("scotty exited %d: %s", code, errOut.String())
			}

			m := breakerSummary.FindStringSubmatch(errOut.String())
			if m == nil {
				t.Fatalf("no breaker summary on stderr:\n%s", errOut.String())
			}
			dead, _ := strconv.Atoi(m[1])
			trips, _ := strconv.Atoi(m[2])
			recoveries, _ := strconv.Atoi(m[3])
			if dead <= 0 || trips <= 0 {
				t.Fatalf("breaker summary shows no losses/trips: %s", m[0])
			}
			if recoveries <= 0 {
				t.Fatalf("breaker never recovered after the writer healed: %s", m[0])
			}
			if !strings.Contains(out.String(), "\t n=") {
				t.Fatalf("no rows delivered after recovery:\n%s", out.String())
			}

			// The DLQ must hold exactly the rows the summary counted.
			recs, err := ops.ReadDLQ(filepath.Join(dlqDir, "rows.dlq"))
			if err != nil {
				t.Fatalf("reading DLQ: %v", err)
			}
			var dlqRows int
			for _, r := range recs {
				dlqRows += r.Count
				if r.Reason == "" || len(r.Payload) == 0 {
					t.Fatalf("malformed DLQ record: %+v", r)
				}
			}
			if dlqRows != dead {
				t.Fatalf("DLQ holds %d rows, summary reported %d dead-lettered", dlqRows, dead)
			}
		})
	}
}

// TestHealthzEndpoint starts a run with -metrics and polls /healthz: once the
// run loop is up and watermarks are flowing, the probe must report ready with
// HTTP 200 and a live watermark lag.
func TestHealthzEndpoint(t *testing.T) {
	pr, pw := io.Pipe()
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(),
			[]string{"-window", "tumbling", "-length", "2000", "-agg", "sum", "-metrics", "127.0.0.1:0"},
			pr, &out, &errOut)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := metricsURL.FindStringSubmatch(errOut.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no metrics URL on stderr:\n%s", errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	for i := 0; i < 200; i++ {
		if _, err := fmt.Fprintf(pw, "%d,1\n", i*100); err != nil {
			t.Fatal(err)
		}
	}

	var h struct {
		Ready          bool   `json:"ready"`
		WatermarkLagMS int64  `json:"watermark_lag_ms"`
		Breaker        string `json:"breaker"`
		DroppedEvents  int64  `json:"dropped_events"`
		DeadRows       int64  `json:"dead_rows"`
	}
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("healthz JSON: %v in %q", err, raw)
		}
		if resp.StatusCode == http.StatusOK && h.Ready && h.WatermarkLagMS > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never became ready: HTTP %d, %q", resp.StatusCode, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.DroppedEvents != 0 || h.DeadRows != 0 {
		t.Fatalf("healthy run reports losses: %+v", h)
	}

	pw.Close()
	if code := <-done; code != 0 {
		t.Fatalf("scotty exited %d: %s", code, errOut.String())
	}
}
