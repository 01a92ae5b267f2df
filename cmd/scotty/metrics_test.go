package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"scotty/internal/core"
	"scotty/internal/obs"
)

// syncBuffer lets the test read stderr while run() is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var metricsURL = regexp.MustCompile(`metrics: (http://\S+)/metrics`)

// TestMetricsEndpointDuringRun drives scotty through a stdin pipe and polls
// the -metrics endpoint while the stream is still open: the counters and
// gauges must show the run in progress, and /debug/slices must serve the
// live slice layout.
func TestMetricsEndpointDuringRun(t *testing.T) {
	pr, pw := io.Pipe()
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{"-window", "tumbling", "-length", "2000", "-agg", "sum", "-metrics", "127.0.0.1:0"}, pr, &out, &errOut)
	}()

	// The endpoint URL appears on stderr as soon as the listener is up.
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

	// Stream events spanning many watermark periods, keeping stdin open.
	for i := 0; i < 200; i++ {
		if _, err := fmt.Fprintf(pw, "%d,1\n", i*100); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	metricValue := func(doc []obs.MetricJSON, name string) int64 {
		for _, m := range doc {
			if m.Name == name && m.Value != nil {
				return *m.Value
			}
		}
		return -1
	}

	// Poll until the run is visibly in progress: tuples ingested, live
	// slices, and a non-zero watermark lag (events at 19.9s, lag 2001ms).
	var snap struct {
		Metrics []obs.MetricJSON `json:"metrics"`
	}
	for {
		if err := json.Unmarshal(fetch("/metrics?format=json"), &snap); err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
		if metricValue(snap.Metrics, "core_tuples_total") > 0 &&
			metricValue(snap.Metrics, "core_slices") > 0 &&
			metricValue(snap.Metrics, "core_watermark_lag_ms") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never became non-zero mid-run: %s", fetch("/metrics?format=json"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(string(fetch("/metrics")), "# TYPE core_tuples_total counter") {
		t.Fatal("/metrics default format is not Prometheus text")
	}

	var slices struct {
		Count  int              `json:"count"`
		Slices []core.SliceInfo `json:"slices"`
	}
	if err := json.Unmarshal(fetch("/debug/slices"), &slices); err != nil {
		t.Fatalf("/debug/slices JSON: %v", err)
	}
	if slices.Count == 0 || len(slices.Slices) != slices.Count {
		t.Fatalf("debug snapshot empty or inconsistent: %+v", slices)
	}

	pw.Close()
	if code := <-done; code != 0 {
		t.Fatalf("scotty exited %d: %s", code, errOut.String())
	}
	checkRows(t, out.String())
}

// TestFleetMetricsOnEndpoint runs a -windows fleet with the metrics endpoint
// up and asserts the sharing layer's catalogue (docs/OBSERVABILITY.md) on
// /metrics next to the core series: the logical/physical gauges must reflect
// the deduplicated plan, and once the factor-window rewrite engages, the
// rewrite-hit and slice-touches-saved counters must move.
func TestFleetMetricsOnEndpoint(t *testing.T) {
	pr, pw := io.Pipe()
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-windows", "sliding:4000:250,sliding:8000:250,sliding:2000:250,sliding:4000:250",
			"-agg", "sum", "-metrics", "127.0.0.1:0"}, pr, &out, &errOut)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := metricsURL.FindStringSubmatch(errOut.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no metrics URL on stderr:\n%s", errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 60s of events at 50ms spacing: enough watermarks past the rewrite
	// hand-over for every eligible member to be served from the factor ring.
	for ts := int64(0); ts <= 60_000; ts += 50 {
		if _, err := fmt.Fprintf(pw, "%d,2\n", ts); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	metricValue := func(doc []obs.MetricJSON, name string) int64 {
		for _, m := range doc {
			if m.Name == name && m.Value != nil {
				return *m.Value
			}
		}
		return -1
	}

	var snap struct {
		Metrics []obs.MetricJSON `json:"metrics"`
	}
	for {
		if err := json.Unmarshal(fetch("/metrics?format=json"), &snap); err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
		if metricValue(snap.Metrics, "query_logical_total") == 4 &&
			metricValue(snap.Metrics, "query_physical_total") > 0 &&
			metricValue(snap.Metrics, "rewrite_hits_total") > 0 &&
			metricValue(snap.Metrics, "slice_touches_saved_total") > 0 &&
			metricValue(snap.Metrics, "core_tuples_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet metrics never converged mid-run: %s", fetch("/metrics?format=json"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The dedup twin shares a physical query: 4 logical, at most 3 member
	// specs plus factor windows, and never 4 direct physical queries once the
	// plan has settled into factored mode (rewrite hits above prove it has).
	if phys := metricValue(snap.Metrics, "query_physical_total"); phys <= 0 || phys > 4 {
		t.Fatalf("implausible query_physical_total %d for a deduplicated factored fleet", phys)
	}
	text := string(fetch("/metrics"))
	for _, want := range []string{
		"# TYPE query_logical_total gauge",
		"# TYPE query_physical_total gauge",
		"# TYPE rewrite_hits_total counter",
		"# TYPE slice_touches_saved_total counter",
		"# TYPE core_tuples_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics text format missing %q:\n%s", want, text)
		}
	}

	pw.Close()
	if code := <-done; code != 0 {
		t.Fatalf("scotty exited %d: %s", code, errOut.String())
	}
}

// TestCheckpointMetricsEveryMode pins that a -checkpoint-dir run reports its
// checkpoint activity under the engine's series in every mode: a run that
// restored final.sck counts one recovery, and the snapshot size and latency
// histograms are registered before the final write observes them.
func TestCheckpointMetricsEveryMode(t *testing.T) {
	for _, mode := range csvModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-window", "tumbling", "-length", "1000", "-agg", "sum", "-checkpoint-dir", dir}, mode.args...)
			var first strings.Builder
			for _, ts := range []int64{0, 500, 1500} {
				fmt.Fprintf(&first, mode.line, ts)
			}
			runScotty(t, args, first.String())

			pr, pw := io.Pipe()
			defer pw.Close()
			var out, errOut syncBuffer
			done := make(chan int, 1)
			go func() {
				done <- run(context.Background(), append(args, "-metrics", "127.0.0.1:0"), pr, &out, &errOut)
				pr.Close()
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
			// The restore happens after the endpoint is up: poll for it.
			var seen map[string]obs.MetricJSON
			for {
				resp, err := http.Get(base + "/metrics?format=json")
				if err != nil {
					t.Fatalf("GET /metrics: %v", err)
				}
				var snap struct {
					Metrics []obs.MetricJSON `json:"metrics"`
				}
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("metrics JSON: %v", err)
				}
				seen = map[string]obs.MetricJSON{}
				for _, m := range snap.Metrics {
					seen[m.Name] = m
				}
				if r := seen["engine_recoveries_total"]; r.Value != nil && *r.Value == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("engine_recoveries_total never reached 1: %+v", seen["engine_recoveries_total"])
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, name := range []string{"checkpoint_bytes", "checkpoint_duration_ms"} {
				if _, ok := seen[name]; !ok {
					t.Errorf("%s not registered", name)
				}
			}

			fmt.Fprintf(pw, mode.line, 2500)
			pw.Close()
			if code := <-done; code != 0 {
				t.Fatalf("second run exited %d: %s", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), "checkpoint: restored state from") {
				t.Fatalf("second run did not restore: %s", errOut.String())
			}
		})
	}
}
