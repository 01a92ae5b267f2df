package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// resultLine matches one emitted window row: "[start, end)\t n=N\t value".
var resultLine = regexp.MustCompile(`^\[-?\d+, -?\d+\)\t n=\d+\t \S`)

func runScotty(t *testing.T, args []string, stdin string) string {
	t.Helper()
	var out, errOut strings.Builder
	code := run(context.Background(), args, strings.NewReader(stdin), &out, &errOut)
	if code != 0 {
		t.Fatalf("scotty %v exited %d: %s", args, code, errOut.String())
	}
	return out.String()
}

func checkRows(t *testing.T, output string) int {
	t.Helper()
	rows := 0
	for _, line := range strings.Split(strings.TrimRight(output, "\n"), "\n") {
		if !resultLine.MatchString(line) {
			t.Fatalf("malformed result row %q", line)
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("no window results emitted")
	}
	return rows
}

func TestDemoStreamEmitsWellFormedResults(t *testing.T) {
	out := runScotty(t, []string{"-window", "tumbling", "-length", "5000", "-agg", "sum", "-demo", "2000"}, "")
	checkRows(t, out)
}

func TestCSVStdinTumblingSum(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,1\n", i*100)
	}
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "count"}, b.String())
	rows := checkRows(t, out)
	// 200 events at 100ms spacing cover [0, 20000): ten 2s windows, the
	// last closed by the final watermark.
	if rows < 9 {
		t.Fatalf("expected ~10 tumbling windows, got %d rows:\n%s", rows, out)
	}
	if !strings.Contains(out, "n=20") {
		t.Fatalf("each full window should count 20 events:\n%s", out)
	}
}

func TestSessionAndHolisticAggregates(t *testing.T) {
	for _, agg := range []string{"median", "p90", "m4", "mean"} {
		out := runScotty(t, []string{"-window", "session", "-gap", "1000", "-agg", agg, "-demo", "1000", "-ooo", "0.1"}, "")
		checkRows(t, out)
	}
}

// TestStoreFlagSelectsDABA: every store kind must print the same windows for
// the same in-order CSV stream, and the daba store must reject flags that
// imply out-of-order input.
func TestStoreFlagSelectsDABA(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*50, i%7)
	}
	args := func(store string) []string {
		return []string{"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum", "-store", store}
	}
	want := runScotty(t, args("lazy"), b.String())
	checkRows(t, want)
	for _, store := range []string{"eager", "daba"} {
		if got := runScotty(t, args(store), b.String()); got != want {
			t.Fatalf("-store %s output diverged from lazy:\n%s\nvs\n%s", store, got, want)
		}
	}

	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-store", "heap", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("unknown store should exit non-zero")
	}
	if code := run(context.Background(), []string{"-store", "daba", "-ooo", "0.2", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("-store daba with -ooo should exit non-zero")
	}
}

func TestUnknownFlagsExitNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-agg", "nope", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("unknown aggregation should exit non-zero")
	}
	if code := run(context.Background(), []string{"-window", "heptagonal", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("unknown window type should exit non-zero")
	}
}

// TestEpochTimestampsRebased guards the epoch-scale path end to end: raw
// epoch-millisecond CSV must finish in O(events) — the window sequence is
// rebased near the first tuple instead of being walked up from time zero
// (hundreds of millions of empty windows) — while printed bounds stay
// absolute.
func TestEpochTimestampsRebased(t *testing.T) {
	const base = int64(1_700_000_000_000)
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d,1\n", base+int64(i)*10)
	}
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "count"}, b.String())
	rows := checkRows(t, out)
	// 1000 events over 10s: five full 2s windows plus at most a couple of
	// margin windows around the edges — anything large means the leading
	// empty-window flood is back.
	if rows < 5 || rows > 12 {
		t.Fatalf("expected ~5 tumbling windows, got %d rows:\n%s", rows, out)
	}
	if !strings.Contains(out, fmt.Sprintf("[%d, %d)\t n=200\t 200", base, base+2000)) {
		t.Fatalf("first full window should print absolute epoch bounds:\n%s", out)
	}
}

// TestSmallTimestampsNotRebased pins the rebase no-op: streams starting near
// time zero keep the historical output byte for byte.
func TestSmallTimestampsNotRebased(t *testing.T) {
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "sum"}, "1000,3.5\n2000,4.5\n")
	want := "[0, 2000)\t n=1\t 3.5\n[2000, 4000)\t n=1\t 4.5\n"
	if out != want {
		t.Fatalf("output changed:\n got %q\nwant %q", out, want)
	}
}

// fleetLine matches one fleet result row: "q<id>\t[start, end)\t n=N\t value".
var fleetLine = regexp.MustCompile(`^q(\d+)\t(\[-?\d+, -?\d+\)\t n=\d+\t \S.*)$`)

// TestWindowsFleetMatchesSingleRuns pins the -windows fleet path against the
// single-window path: each member's q<id>-prefixed rows must be exactly the
// rows a standalone run of that window prints, and an exact-duplicate member
// must share its twin's physical query (visible in the plan line on stderr)
// while still printing its own rows.
func TestWindowsFleetMatchesSingleRuns(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*50, i%7)
	}
	in := b.String()

	var out, errOut strings.Builder
	args := []string{"-windows", "sliding:2000:500,tumbling:1000,sliding:2000:500", "-agg", "sum"}
	if code := run(context.Background(), args, strings.NewReader(in), &out, &errOut); code != 0 {
		t.Fatalf("fleet run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "fleet(logical=3 physical=2") {
		t.Fatalf("duplicate member not deduplicated; plan line: %s", errOut.String())
	}

	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		m := fleetLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed fleet row %q", line)
		}
		rows["q"+m[1]] = append(rows["q"+m[1]], m[2])
	}
	sortRows := func(rs []string) string {
		s := append([]string(nil), rs...)
		sort.Strings(s)
		return strings.Join(s, "\n")
	}

	singles := map[string][]string{
		"q0": {"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum"},
		"q1": {"-window", "tumbling", "-length", "1000", "-agg", "sum"},
	}
	for id, args := range singles {
		want := runScotty(t, args, in)
		got := rows[id]
		if sortRows(got) != sortRows(strings.Split(strings.TrimRight(want, "\n"), "\n")) {
			t.Fatalf("%s rows diverged from the standalone run:\n%s\nvs\n%s", id, strings.Join(got, "\n"), want)
		}
	}
	if sortRows(rows["q2"]) != sortRows(rows["q0"]) {
		t.Fatalf("duplicate q2 rows diverged from q0:\nq2:\n%s\nq0:\n%s", strings.Join(rows["q2"], "\n"), strings.Join(rows["q0"], "\n"))
	}
}

// TestWindowsBadSpecsExitNonZero covers the -windows parser's error paths.
func TestWindowsBadSpecsExitNonZero(t *testing.T) {
	for _, spec := range []string{"sliding", "session", "tumbling:0", "sliding:1000:-5", "heptagonal:9", "tumbling:1000:2:3", " , "} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-windows", spec, "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
			t.Fatalf("-windows %q should exit non-zero", spec)
		}
	}
}

// TestWindowsCheckpointRestoreResumesFleet is the fleet shape of the restart
// contract: the snapshot carries the whole sharing plan (logical ids, dedup
// subscriptions, rebase offset), so a second run resumes every member and
// keeps their ids stable.
func TestWindowsCheckpointRestoreResumesFleet(t *testing.T) {
	const t0 = int64(1722470400000) // 2024-08-01 00:00:00 UTC, ms
	dir := t.TempDir()
	args := []string{"-windows", "tumbling:1000,sliding:2000:1000,tumbling:1000", "-agg", "sum", "-checkpoint-dir", dir}
	feed := func(offsets ...int64) string {
		var b strings.Builder
		for _, off := range offsets {
			fmt.Fprintf(&b, "%d,1\n", t0+off)
		}
		return b.String()
	}

	var out1, err1 strings.Builder
	if code := run(context.Background(), args, strings.NewReader(feed(0, 500, 1500, 2500)), &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d: %s", code, err1.String())
	}
	if want := fmt.Sprintf("q0\t[%d, %d)", t0, t0+1000); !strings.Contains(out1.String(), want) {
		t.Fatalf("first run missing window %s:\n%s", want, out1.String())
	}
	if !strings.Contains(err1.String(), "checkpoint: wrote") {
		t.Fatalf("first run wrote no checkpoint: %s", err1.String())
	}

	var out2, err2 strings.Builder
	if code := run(context.Background(), args, strings.NewReader(feed(3500, 4500, 9000)), &out2, &err2); code != 0 {
		t.Fatalf("second run exited %d: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "checkpoint: restored state from") {
		t.Fatalf("second run did not restore: %s", err2.String())
	}
	// Continuation windows from every member, still under their original ids:
	// the tumbling pair (q0 and its dedup twin q2) and the sliding member q1.
	for _, want := range []string{
		fmt.Sprintf("q0\t[%d, %d)", t0+4000, t0+5000),
		fmt.Sprintf("q2\t[%d, %d)", t0+4000, t0+5000),
		fmt.Sprintf("q1\t[%d, %d)", t0+3000, t0+5000),
	} {
		if !strings.Contains(out2.String(), want) {
			t.Fatalf("restored run missing continuation row %s:\n%s", want, out2.String())
		}
	}
}

// csvModes are the two CSV line formats tests run in: unkeyed "ts,value"
// lines, and keyed "ts,value,key" lines whose rows carry k7.
var csvModes = []struct {
	name, line, row string
	args            []string
}{
	{"unkeyed", "%d,1\n", "", nil},
	{"keyed", "%d,1,7\n", "k7\t", []string{"-keyed"}},
}

// stripRowPrefix checks that every row of output starts with prefix and
// returns the output without it.
func stripRowPrefix(t *testing.T, output, prefix string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(output, "\n"), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			t.Fatalf("row %q lacks prefix %q", line, prefix)
		}
		b.WriteString(rest + "\n")
	}
	return b.String()
}

// TestCancelDrainsAndWritesCheckpoint drives run() the way a SIGINT does:
// cancel the context mid-stream (stdin still open, scanner blocked) and
// require a clean exit that flushed pending windows and wrote final.sck.
func TestCancelDrainsAndWritesCheckpoint(t *testing.T) {
	for _, mode := range csvModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pr, pw := io.Pipe()
			defer pw.Close()
			dir := t.TempDir()
			var out, errOut syncBuffer
			done := make(chan int, 1)
			go func() {
				args := append([]string{"-window", "tumbling", "-length", "1000", "-agg", "sum", "-checkpoint-dir", dir}, mode.args...)
				done <- run(ctx, args, pr, &out, &errOut)
			}()

			// Stream 10s of events; the 2001ms watermark lag means rows for
			// the early windows appear (and are flushed) while the feed is
			// running.
			for ts := int64(0); ts <= 10_000; ts += 250 {
				if _, err := fmt.Fprintf(pw, mode.line, ts); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for !strings.Contains(out.String(), mode.row+"[0, 1000)") {
				if time.Now().After(deadline) {
					t.Fatalf("no window rows before cancel; stdout %q stderr %q", out.String(), errOut.String())
				}
				time.Sleep(5 * time.Millisecond)
			}

			cancel() // the signal: stdin is still open, the scanner still blocked
			var code int
			select {
			case code = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return after cancel")
			}
			if code != 0 {
				t.Fatalf("canceled run exited %d: %s", code, errOut.String())
			}
			// The drain must have emitted the windows the watermark had not
			// reached yet — the last full window ends at 10000 and only a
			// MaxTime flush closes it this early.
			if !strings.Contains(out.String(), mode.row+"[9000, 10000)") {
				t.Fatalf("pending windows not drained on cancel:\n%s", out.String())
			}
			checkRows(t, stripRowPrefix(t, out.String(), mode.row))
			if !strings.Contains(errOut.String(), "checkpoint: wrote") {
				t.Fatalf("no final checkpoint logged: %s", errOut.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "final.sck")); err != nil {
				t.Fatalf("final.sck missing: %v", err)
			}
		})
	}
}

// TestCheckpointRestoreResumesRun pins the restart half of the contract: a
// second run over the same checkpoint dir restores the snapshot instead of
// starting cold, and keeps producing windows for the continuation stream.
// Epoch-scale timestamps make the internal rebase offset non-zero, so this
// also pins that the offset is persisted with the snapshot: a resumed run
// that recomputed it from its own (later) first event would print every
// window bound shifted by the difference.
func TestCheckpointRestoreResumesRun(t *testing.T) {
	const t0 = int64(1722470400000) // 2024-08-01 00:00:00 UTC, ms
	for _, mode := range csvModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-window", "tumbling", "-length", "1000", "-agg", "sum", "-checkpoint-dir", dir}, mode.args...)
			feed := func(offsets ...int64) string {
				var b strings.Builder
				for _, off := range offsets {
					fmt.Fprintf(&b, mode.line, t0+off)
				}
				return b.String()
			}

			var out1, err1 strings.Builder
			if code := run(context.Background(), args, strings.NewReader(feed(0, 500, 1500, 2500)), &out1, &err1); code != 0 {
				t.Fatalf("first run exited %d: %s", code, err1.String())
			}
			if want := fmt.Sprintf("%s[%d, %d)", mode.row, t0, t0+1000); !strings.Contains(out1.String(), want) {
				t.Fatalf("first run missing window %s:\n%s", want, out1.String())
			}
			if !strings.Contains(err1.String(), "checkpoint: wrote") {
				t.Fatalf("first run wrote no checkpoint: %s", err1.String())
			}

			var out2, err2 strings.Builder
			if code := run(context.Background(), args, strings.NewReader(feed(3500, 4500, 9000)), &out2, &err2); code != 0 {
				t.Fatalf("second run exited %d: %s", code, err2.String())
			}
			if !strings.Contains(err2.String(), "checkpoint: restored state from") {
				t.Fatalf("second run did not restore: %s", err2.String())
			}
			if want := fmt.Sprintf("%s[%d, %d)", mode.row, t0+4000, t0+5000); !strings.Contains(out2.String(), want) {
				t.Fatalf("restored run missing continuation window %s (rebase offset not resumed?):\n%s", want, out2.String())
			}
		})
	}
}

// TestInputReadFaults pins how the reader treats a faulty input stream, in
// both line formats: a line over the 64 KiB read limit is reported as
// malformed and skipped, and the lines after it are still read; any other
// read error is reported and fails the run, but only after the drain has
// printed every window the input reached.
func TestInputReadFaults(t *testing.T) {
	for _, mode := range csvModes {
		t.Run(mode.name, func(t *testing.T) {
			args := append([]string{"-window", "tumbling", "-length", "5000", "-agg", "count"}, mode.args...)
			var in, long strings.Builder
			for i := 0; i < 300; i++ {
				if i == 100 {
					long.WriteString(strings.Repeat("9", 70_000) + ",1\n")
				}
				fmt.Fprintf(&in, mode.line, i*100)
				fmt.Fprintf(&long, mode.line, i*100)
			}
			want := runScotty(t, args, in.String())
			if rows := checkRows(t, stripRowPrefix(t, want, mode.row)); rows != 6 {
				t.Fatalf("expected 6 tumbling windows, got %d:\n%s", rows, want)
			}

			var out, errOut strings.Builder
			if code := run(context.Background(), args, strings.NewReader(long.String()), &out, &errOut); code != 0 {
				t.Fatalf("run with an over-long line exited %d: %s", code, errOut.String())
			}
			if out.String() != want {
				t.Fatalf("an over-long line changed the output:\n%s\nwant:\n%s", out.String(), want)
			}
			if !strings.Contains(errOut.String(), `skipping malformed line: "9999`) {
				t.Fatalf("over-long line not reported: %.200s", errOut.String())
			}

			out.Reset()
			errOut.Reset()
			failing := io.MultiReader(strings.NewReader(in.String()), iotest.ErrReader(errors.New("injected read failure")))
			if code := run(context.Background(), args, failing, &out, &errOut); code == 0 {
				t.Fatal("a read error must fail the run")
			}
			if out.String() != want {
				t.Fatalf("a read error skipped the drain:\n%s\nwant:\n%s", out.String(), want)
			}
			if !strings.Contains(errOut.String(), "injected read failure") {
				t.Fatalf("read error not reported: %s", errOut.String())
			}
		})
	}
}

// TestKeyedKeyZeroMatchesUnkeyed pins that keyed and unkeyed runs share one
// pipeline: a keyed run whose lines all carry key 0 prints exactly the
// unkeyed run's bytes with k0 before each row. The input is epoch-scale
// (rebased), with idle gaps that close sessions and 20% of events delayed by
// up to 2200ms, past the watermark lag, so late events emit update rows.
func TestKeyedKeyZeroMatchesUnkeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type event struct{ arrival, ts, v int64 }
	events := make([]event, 3000)
	ts := int64(1722470404321)
	for i := range events {
		ts += 1 + rng.Int63n(40)
		if rng.Intn(100) == 0 {
			ts += 1500
		}
		e := event{arrival: ts, ts: ts, v: rng.Int63n(100)}
		if rng.Float64() < 0.2 {
			e.arrival += rng.Int63n(2200)
		}
		events[i] = e
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].arrival < events[j].arrival })
	var plain, keyed strings.Builder
	for _, e := range events {
		fmt.Fprintf(&plain, "%d,%d\n", e.ts, e.v)
		fmt.Fprintf(&keyed, "%d,%d,0\n", e.ts, e.v)
	}

	for _, args := range [][]string{
		{"-window", "sliding", "-length", "10000", "-slide", "1000", "-agg", "sum"},
		{"-window", "tumbling", "-length", "5000", "-agg", "p90"},
		{"-window", "session", "-gap", "1000", "-agg", "sum"},
		{"-windows", "sliding:10000:1000,tumbling:5000", "-agg", "p90"},
	} {
		want := runScotty(t, args, plain.String())
		got := runScotty(t, append([]string{"-keyed"}, args...), keyed.String())
		if strings.Count(want, "\n") < 2 {
			t.Fatalf("%v: too few rows to compare:\n%s", args, want)
		}
		if got != "k0\t"+strings.ReplaceAll(strings.TrimSuffix(want, "\n"), "\n", "\nk0\t")+"\n" {
			t.Fatalf("%v: keyed output is not the unkeyed output with k0 rows:\n%s\nunkeyed:\n%s", args, got, want)
		}
	}
}

// keyedLine matches one keyed result row: "k<key>\t[start, end)\t n=N\t value".
var keyedLine = regexp.MustCompile(`^k\d+\t\[-?\d+, -?\d+\)\t n=\d+\t \S`)

// TestKeyedModeEmitsPerKeyRows pins the -keyed flag surface: demo streams
// partition by the generator's 16 keys, every key produces its own rows, and
// a -mem-budget bounded run (spilling through -spill-dir) emits the exact
// same rows as an unbounded one.
func TestKeyedModeEmitsPerKeyRows(t *testing.T) {
	base := []string{"-keyed", "-window", "sliding", "-length", "10000", "-slide", "2000", "-demo", "20000"}
	out := runScotty(t, base, "")
	keys := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !keyedLine.MatchString(line) {
			t.Fatalf("malformed keyed row %q", line)
		}
		keys[line[:strings.Index(line, "\t")]] = true
	}
	if len(keys) != 16 {
		t.Fatalf("expected rows for all 16 demo keys, got %d: %v", len(keys), keys)
	}

	spillDir := filepath.Join(t.TempDir(), "spill")
	bounded := runScotty(t, append([]string{"-mem-budget", "8192", "-spill-dir", spillDir}, base...), "")
	if bounded != out {
		t.Errorf("budgeted run output differs from unbounded run")
	}
}

// TestKeyedCSVKeyColumn checks the third CSV column routes rows to keys.
func TestKeyedCSVKeyColumn(t *testing.T) {
	in := "0,1,3\n500,2,4\n1200,4,3\n"
	out := runScotty(t, []string{"-keyed", "-window", "tumbling", "-length", "1000", "-lateness", "0", "-agg", "sum"}, in)
	for _, want := range []string{"k3\t[0, 1000)\t n=1\t 1", "k4\t[0, 1000)\t n=1\t 2", "k3\t[1000, 2000)\t n=1\t 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestKeyedFlagValidation pins the spill flag requirements.
func TestKeyedFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-mem-budget", "1024"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("-mem-budget without -keyed exited %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-keyed", "-spill-dir", t.TempDir()}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("-spill-dir without -mem-budget exited %d, want 2", code)
	}
}
