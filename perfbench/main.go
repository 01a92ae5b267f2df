// Command perfbench is the repository's end-to-end benchmark of the scotty
// binary. It generates a workload's CSV input from a seed, pipes it into
// scotty subprocesses one at a time, checks every output against the
// reference oracle, and prints the metrics as one JSON object on the last
// line of stdout. See README.md in this directory for the workloads, the
// metrics and how they relate.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload csv-sliding --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes the traced run
// that gives the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one benchmark run.
type bench struct {
	w      workload
	seed   int64
	in     *input
	ex     *expected
	model  *model
	h      *harness
	stderr io.Writer
	// refHash is the stdout hash of the trial whose output passed the
	// reference check; every other trial must print the same bytes.
	refHash   uint64
	checked   bool
	verdict   verdict
	attempted int
	failed    int
	exitFail  bool
	prov      map[string]any
	metrics   map[string]metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name: csv-sliding | fleet-holistic-ooo | keyed-egress")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "measurement time in seconds")
		trace   = fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 makes the traced per-layer run")
		bin     = fs.String("scotty", ".bench_build/scotty", "scotty binary")
		work    = fs.String("work", ".bench_build", "directory for logs and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(stderr, "perfbench: scotty binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	start := time.Now()
	in := generate(w, *seed)
	b := &bench{w: w, seed: *seed, in: in, stderr: stderr, metrics: map[string]metric{}}
	b.ex = oracle(w, in)
	b.model = buildModel(w, in)
	b.h = &harness{bin: *bin, work: *work, args: w.args(), in: in, model: b.model}
	b.prov = map[string]any{
		"workload":         w.name,
		"seed":             *seed,
		"trace":            *trace,
		"run_seconds":      *seconds,
		"scotty_args":      strings.Join(w.args(), " "),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"input_events":     len(in.events),
		"input_lines":      len(in.lineEnd),
		"input_bytes":      len(in.csv),
		"malformed_lines":  in.malformed,
		"expected_rows":    len(b.model.rowLine),
		"expected_windows": b.ex.nonEmpty,
		"prepare_s":        time.Since(start).Seconds(),
	}

	var err error
	if *trace == 0 {
		err = b.measure(time.Duration(*seconds) * time.Second)
	} else {
		err = b.traced(*work)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.prov["checks"] = map[string]int{
		"expected": b.verdict.expected, "rows": b.verdict.rows, "leading_partial": b.verdict.leading,
		"missing": b.verdict.missing, "wrong": b.verdict.wrong, "extra": b.verdict.extra,
	}
	b.prov["elapsed_s"] = time.Since(start).Seconds()

	printTable(stderr, b)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": b.prov}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: b.failed == 0 && b.checked, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printTable prints every metric by name, value and unit on stderr, with the
// two end-to-end figures the result line leaves out: the p99 latency, whose
// run-to-run spread on a shared 2-core host is too wide for any regression
// bound, and failed_frac, which ok_frac restates without ever reading 0.
func printTable(w io.Writer, b *bench) {
	fmt.Fprintf(w, "perfbench: %s, seed %d, %d scotty runs, %d failed\n", b.w.name, b.seed, b.attempted, b.failed)
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, b.metrics[name].Value, b.metrics[name].Unit)
	}
	if v, ok := b.prov["latency_p99_ms"].(float64); ok {
		fmt.Fprintf(w, "  %-34s %16.6g %s (%d samples)\n", "latency_p99_ms", v, "ms", b.prov["latency_samples"])
	}
	if v, ok := b.prov["failed_frac"].(float64); ok {
		fmt.Fprintf(w, "  %-34s %16.6g %s (%d leading partial windows of %d)\n", "failed_frac", v, "ratio", b.verdict.leading, b.verdict.expected)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// commit reads the checked-out commit from .git in the working directory,
// or reports "unknown" where there is none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, r, ok := strings.Cut(line, " "); ok && r == ref {
				return id
			}
		}
	}
	return "unknown"
}

// accept checks one data trial: clean exit, the expected row count, the
// reference-checked bytes, and one stderr report per injected malformed
// line. The first trial that keeps its output is checked against the oracle.
func (b *bench) accept(kind string, t *trial) {
	b.attempted++
	var problems []string
	if t.err != nil {
		problems = append(problems, t.err.Error())
		b.exitFail = true
	}
	if t.rows != len(b.model.rowLine) {
		problems = append(problems, fmt.Sprintf("%d rows, the replay predicts %d", t.rows, len(b.model.rowLine)))
	}
	if t.malformedSkipped != b.in.malformed {
		problems = append(problems, fmt.Sprintf("%d malformed-line reports, %d injected", t.malformedSkipped, b.in.malformed))
	}
	if t.out != nil && !b.checked && t.err == nil {
		v, err := checkOutput(b.w, b.ex, t.out)
		b.verdict = v
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case v.unexplained() > 0:
			problems = append(problems, fmt.Sprintf("reference check: %d missing, %d wrong, %d extra windows", v.missing, v.wrong, v.extra))
		default:
			b.checked = true
			b.refHash = t.hash
		}
	} else if b.checked && t.hash != b.refHash {
		problems = append(problems, "output differs from the reference-checked run")
	}
	if len(problems) > 0 {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: %s trial failed: %s\n", kind, strings.Join(problems, "; "))
	}
}

func (b *bench) put(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// setupTrial measures scotty's set-up time once: start, empty stdin, exit.
func (b *bench) setupTrial() float64 {
	t := b.h.run(trialOpts{empty: true})
	b.attempted++
	if t.err != nil || t.rows != 0 {
		b.failed++
		b.exitFail = b.exitFail || t.err != nil
		fmt.Fprintf(b.stderr, "perfbench: set-up trial failed: %v, %d rows\n", t.err, t.rows)
	}
	return t.total.Seconds()
}

// measure makes the untraced run: saturation and paced trials in turn until
// the measurement time is used up, with at least one of each and 1000
// latency samples. Set-up trials run between them, so that each metric's
// median spans the whole run; latency percentiles are taken over the rows of
// all paced trials. The benchmark's own garbage collector is off while it
// measures: its pauses would stall the writer and reader.
func (b *bench) measure(seconds time.Duration) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.setupTrial() // the first start pays for loading the binary

	events := float64(len(b.in.events))
	var eps, cpu, rss, lat, setup []float64
	satN, latN := 0, 0
	var lateMax time.Duration
	deadline := time.Now().Add(seconds)
	for satN == 0 || len(lat) < 1000 || time.Now().Before(deadline) {
		if b.failed > 0 {
			break
		}
		setup = append(setup, b.setupTrial(), b.setupTrial())
		// The first trial is a saturation trial, whose output the oracle
		// checks before any other trial is compared with it. After that, two
		// saturation trials run per paced one: throughput is the noisier
		// median, and one paced trial already yields 1000 rows.
		if satN == 0 || (len(lat) >= 1000 && satN < 2*latN) {
			t := b.h.run(trialOpts{keep: !b.checked})
			b.accept("saturation", &t)
			satN++
			eps = append(eps, events/t.wall.Seconds())
			cpu = append(cpu, (t.cpuUser+t.cpuSys).Seconds()*1e6/events)
			rss = append(rss, float64(t.peakRSSKB)/1024)
			fmt.Fprintf(b.stderr, "perfbench: saturation trial: %.0f events/s, %.3f us cpu/event\n", eps[len(eps)-1], cpu[len(cpu)-1])
			continue
		}
		t := b.h.run(trialOpts{rate: b.w.rate})
		b.accept("paced", &t)
		latN++
		lateMax = max(lateMax, t.lateMax)
		if len(t.latMS) == 0 {
			continue
		}
		lat = append(lat, t.latMS...)
		sort.Float64s(t.latMS)
		fmt.Fprintf(b.stderr, "perfbench: paced trial: %d rows, p50 %.3f ms, p99 %.3f ms, writer late %.3f ms\n", len(t.latMS), quantile(t.latMS, 0.50), quantile(t.latMS, 0.99), t.lateMax.Seconds()*1e3)
	}
	okFrac := 0.0
	if !b.exitFail && b.verdict.expected > 0 {
		okFrac = 1 - float64(b.verdict.mismatches())/float64(b.verdict.expected)
	}
	sort.Float64s(lat)
	b.put("throughput_eps", "1/s", median(eps))
	b.put("latency_p50_ms", "ms", quantile(lat, 0.50))
	b.put("cpu_us_per_event", "us", median(cpu))
	b.put("peak_rss_mb", "MB", median(rss))
	b.put("setup_s", "s", median(setup))
	b.put("ok_frac", "ratio", okFrac)
	b.prov["failed_frac"] = 1 - okFrac
	b.prov["latency_p99_ms"] = quantile(lat, 0.99)
	b.prov["saturation_trials"] = satN
	b.prov["paced_trials"] = latN
	b.prov["paced_rate_lines_per_s"] = b.w.rate
	b.prov["latency_samples"] = len(lat)
	b.prov["latency_samples_per_trial"] = len(b.model.rowLine)
	b.prov["writer_late_ms_max"] = lateMax.Seconds() * 1e3
	b.prov["setup_trials"] = len(setup)
	if !b.checked && b.failed == 0 {
		return errors.New("no trial output was checked against the oracle")
	}
	return nil
}

// median of the values (the mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
