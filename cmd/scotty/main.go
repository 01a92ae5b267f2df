// Command scotty runs an ad-hoc windowed aggregation over a CSV stream of
// (timestamp-ms, value) pairs from stdin — or over a generated demo stream —
// using the general stream slicing operator. It demonstrates the operator as
// a standalone tool:
//
//	scotty -window tumbling -length 5000 -agg sum < events.csv
//	scotty -window session -gap 1000 -agg mean -demo 100000
//	scotty -window sliding -length 10000 -slide 2000 -agg p90 -ooo 0.2
//	scotty -window sliding -length 10000 -slide 2000 -store daba -demo 100000
//	scotty -windows sliding:10000:2000,sliding:20000:2000,tumbling:5000 -demo 100000
//
// -windows runs a fleet of concurrent window queries over one stream through
// the sharing layer (docs/SHARING.md): exact duplicates are deduplicated and
// correlated periodic time windows are rewritten onto cost-chosen factor
// windows, so the members share physical slicing work. Fleet result rows are
// prefixed with their logical query id (q0, q1, ...).
//
// Input events may arrive out of order; results are emitted on periodic
// watermarks, late events produce update rows. Epoch-millisecond timestamps
// are fine: time windows are internally rebased by a multiple of the slide
// (bounds print unchanged), so the run does not walk the empty windows
// between time zero and the first tuple.
//
// SIGINT or SIGTERM drains instead of killing: the feed stops, pending
// windows are flushed with a final watermark, and — when -checkpoint-dir is
// set — the operator state is snapshotted to <dir>/final.sck before the
// process exits 0. A later run with the same flags restores that snapshot.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/checkpoint"
	"scotty/internal/core"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/stream"
	"scotty/internal/window"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable command body: flags in, exit code out. Canceling ctx
// (a signal in production, a test hook here) stops the feed and triggers the
// drain-and-checkpoint shutdown path.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scotty", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		winType  = fs.String("window", "tumbling", "tumbling | sliding | session | count")
		windows  = fs.String("windows", "", "comma-separated fleet of window queries sharing one stream, e.g. 'sliding:10000:2000,tumbling:5000,session:1000,count:100' (overrides -window/-length/-slide/-gap)")
		length   = fs.Int64("length", 5000, "window length (ms, or tuples for -window count)")
		slide    = fs.Int64("slide", 0, "slide step for sliding windows (ms)")
		gap      = fs.Int64("gap", 1000, "inactivity gap for session windows (ms)")
		aggName  = fs.String("agg", "sum", "sum | count | mean | min | max | median | p90 | m4")
		store    = fs.String("store", "lazy", "slice store: lazy | eager | daba (daba assumes in-order input and forces -lateness 0)")
		demo     = fs.Int("demo", 0, "generate N demo events instead of reading stdin")
		ooo      = fs.Float64("ooo", 0, "fraction of demo events delivered out of order")
		lateness = fs.Int64("lateness", 2000, "allowed lateness (ms)")
		wmEvery  = fs.Int64("watermark", 1000, "watermark period (ms of event time)")
		metrics  = fs.String("metrics", "", "serve /metrics and /debug/slices on this address (:0 picks a free port; the URL is printed to stderr)")
		ckptDir  = fs.String("checkpoint-dir", "", "write a final operator snapshot to <dir>/final.sck on exit or SIGINT/SIGTERM, and restore it on start if present")
		keyed    = fs.Bool("keyed", false, "window each key's sub-stream independently (demo streams use the generator's key; CSV lines may carry one as 'ts,value,key'); rows are prefixed k<key>")
		budget   = fs.Int64("mem-budget", 0, "resident-bytes budget for keyed state; over budget, cold keys spill to -spill-dir (requires -keyed; 0 = unbounded)")
		spillDir = fs.String("spill-dir", "", "scratch directory for spilled key state (requires -mem-budget; default: a per-process dir under the system temp dir, removed on exit)")
		bpName   = fs.String("backpressure", "block", "ingest overload policy: block | drop-oldest | drop-newest | shed; non-block decouples input from processing through a bounded queue and sheds events under overload, counted in scotty_events_dropped_total (not supported with -keyed)")
		breaker  = fs.Bool("breaker", false, "guard row output with retry and a circuit breaker: rows the writer permanently rejects are dead-lettered (counted, and captured under -dlq-dir) instead of wedging or silently vanishing")
		dlqDir   = fs.String("dlq-dir", "", "directory receiving dead-lettered output rows as durable records (requires -breaker; read back with ops.ReadDLQ)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	policy, err := ops.ParsePolicy(*bpName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if policy != ops.Block && *keyed {
		fmt.Fprintln(stderr, "-backpressure: only block is supported with -keyed (per-key state makes event drops key-skewed)")
		return 2
	}
	if *dlqDir != "" && !*breaker {
		fmt.Fprintln(stderr, "-dlq-dir requires -breaker")
		return 2
	}

	var specs []winSpec
	var step int64
	if *windows != "" {
		specs, step = parseWindows(*windows, stderr)
	} else if spec, s, ok := makeWindow(*winType, *length, *slide, *gap, stderr); ok {
		specs, step = []winSpec{spec}, s
	}
	if len(specs) == 0 {
		return 2
	}
	if *budget > 0 && !*keyed {
		fmt.Fprintln(stderr, "-mem-budget requires -keyed")
		return 2
	}
	if *spillDir != "" && *budget <= 0 {
		fmt.Fprintln(stderr, "-spill-dir requires -mem-budget")
		return 2
	}

	var kind core.StoreKind
	switch *store {
	case "lazy":
		kind = core.StoreLazy
	case "eager":
		kind = core.StoreEager
	case "daba":
		kind = core.StoreDABA
	default:
		fmt.Fprintf(stderr, "unknown store %q\n", *store)
		return 2
	}
	ordered := kind == core.StoreDABA
	if ordered {
		// DABA rings are FIFO structures over closed slices; they require
		// the in-order processing mode, which admits no late tuples.
		if *ooo > 0 {
			fmt.Fprintln(stderr, "-store daba requires in-order input; drop -ooo")
			return 2
		}
		if *lateness != 0 {
			fmt.Fprintln(stderr, "note: -store daba forces -lateness 0 (in-order mode)")
			*lateness = 0
		}
	}

	e := &env{
		opts:  core.Options{Lateness: *lateness, Store: kind, Ordered: ordered},
		specs: specs, fleet: *windows != "" && !*keyed,
		policy: policy, demo: *demo, ooo: *ooo,
		budget: *budget, spillDir: *spillDir, ckptDir: *ckptDir, breaker: *breaker, dlqDir: *dlqDir,
		wm:  stream.Watermarker{Period: *wmEvery, Lag: 2001},
		ctx: ctx, stdin: stdin, stdout: stdout, stderr: stderr,
	}
	if *metrics != "" {
		if e.ms, err = startMetrics(*metrics, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer e.ms.stop()
		e.opts.Metrics = e.ms.reg
	}
	// Epoch-scale timestamps are rebased before they reach the operator:
	// window starts are absolute multiples of the slide, so a tumbling or
	// sliding query fed raw epoch milliseconds would otherwise emit (and
	// walk) hundreds of millions of a-priori-empty windows between time
	// zero and the first tuple. Shifting by a multiple of the slide maps
	// onto the identical window family; the offset is added back on output.
	e.rb = &rebaser{step: step, margin: e.wm.Lag + *lateness}
	// Keyed rows carry the query id only when several queries share a key;
	// unkeyed -windows rows always do, since they come from the fleet.
	e.keyRows, e.queryRows = *keyed, *windows != "" && (!*keyed || len(specs) > 1)

	if !*keyed {
		return runMode(e, *aggName, unkeyed)
	}
	if *windows != "" {
		// Per-key operators register the fleet members as plain
		// concurrent queries; the cross-query sharing rewrite
		// (dedup/factor windows) applies to the unkeyed fleet only.
		fmt.Fprintln(stderr, "keyed mode: -windows members run as unshared concurrent queries per key")
	}
	return runMode(e, *aggName, keyedMode)
}

// ingestQueueLen is the -backpressure ingest edge's capacity in items. Tight
// enough that a stalled operator visibly engages the policy, roomy enough
// that parsing jitter alone never drops.
const ingestQueueLen = 256

// metricsServer owns the optional observability endpoint: the operator's
// registry on /metrics (Prometheus text or JSON), the latest slice-layout
// snapshot on /debug/slices, and the readiness/liveness probe on /healthz.
type metricsServer struct {
	reg     *obs.Registry
	slices  atomic.Value // []core.SliceInfo, published from the processing loop
	ready   atomic.Bool  // set once the run loop is processing items
	breaker atomic.Value // func() ops.State, published when -breaker guards the sink
	srv     *http.Server
}

// healthz is the /healthz response body. Ready reports whether the run loop
// is up (readiness); the watermark lag, breaker state, and loss counters are
// the liveness signals an external prober alarms on.
type healthz struct {
	Ready          bool   `json:"ready"`
	WatermarkLagMS int64  `json:"watermark_lag_ms"`
	Breaker        string `json:"breaker,omitempty"`
	DroppedEvents  int64  `json:"dropped_events"`
	DeadRows       int64  `json:"dead_rows"`
}

func startMetrics(addr string, stderr io.Writer) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	ms := &metricsServer{reg: obs.NewRegistry()}
	ms.slices.Store([]core.SliceInfo{})
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(ms.reg))
	mux.HandleFunc("/debug/slices", func(w http.ResponseWriter, r *http.Request) {
		sl := ms.slices.Load().([]core.SliceInfo)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Count  int              `json:"count"`
			Slices []core.SliceInfo `json:"slices"`
		}{len(sl), sl})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := healthz{
			Ready:          ms.ready.Load(),
			WatermarkLagMS: ms.seriesTotal("core_watermark_lag_ms"),
			DroppedEvents:  ms.seriesTotal("scotty_events_dropped_total"),
			DeadRows:       ms.seriesTotal("scotty_rows_dead_lettered_total"),
		}
		code := http.StatusOK
		if f, ok := ms.breaker.Load().(func() ops.State); ok {
			state := f()
			h.Breaker = state.String()
			if state == ops.Open {
				code = http.StatusServiceUnavailable
			}
		}
		if !h.Ready {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(h)
	})
	ms.srv = &http.Server{Handler: mux}
	go ms.srv.Serve(ln)
	fmt.Fprintf(stderr, "metrics: http://%s/metrics\n", ln.Addr())
	return ms, nil
}

// seriesTotal sums every series of one metric name (labeled or not) in the
// registry — counters across their label sets, a plain gauge as itself.
func (ms *metricsServer) seriesTotal(name string) int64 {
	var total int64
	for _, m := range ms.reg.Snapshot() {
		if m.Value != nil && (m.Name == name || strings.HasPrefix(m.Name, name+"{")) {
			total += *m.Value
		}
	}
	return total
}

func (ms *metricsServer) stop() { ms.srv.Close() }

// winSpec is one validated window query. It is not a definition: each
// per-key operator needs fresh ones, and session windows are typed by the
// value the operator ingests.
type winSpec struct {
	def func() window.Definition // nil for a session window
	gap int64
}

// makeWindow validates one window query and reports the rebase step: the
// slide for time-measure periodic windows (whose edges are absolute multiples
// of it), 0 for windows that are translation-invariant (sessions) or rank-
// based (count) and need no rebasing.
func makeWindow(kind string, length, slide, gap int64, stderr io.Writer) (winSpec, int64, bool) {
	switch kind {
	case "tumbling":
		return winSpec{def: func() window.Definition { return window.Tumbling(stream.Time, length) }}, length, true
	case "sliding":
		if slide <= 0 {
			slide = length / 2
		}
		return winSpec{def: func() window.Definition { return window.Sliding(stream.Time, length, slide) }}, slide, true
	case "session":
		return winSpec{gap: gap}, 0, true
	case "count":
		return winSpec{def: func() window.Definition { return window.Tumbling(stream.Count, length) }}, 0, true
	default:
		fmt.Fprintf(stderr, "unknown window type %q\n", kind)
		return winSpec{}, 0, false
	}
}

// addQueries registers fresh definitions of the window set on op.
func addQueries[V any](op interface {
	AddQuery(window.Definition) (int, error)
}, specs []winSpec) error {
	for _, s := range specs {
		var def window.Definition
		if s.def != nil {
			def = s.def()
		} else {
			def = window.Session[V](s.gap)
		}
		if _, err := op.AddQuery(def); err != nil {
			return err
		}
	}
	return nil
}

// parseWindows parses the -windows fleet list. Each entry is kind:params with
// the same parameters as the single-window flags: tumbling:length,
// sliding:length[:slide], session:gap, count:n. The combined rebase step is
// the LCM of the members' steps — the offset must be a multiple of every
// periodic member's step (and is then also a multiple of every factor
// window's, whose length divides a member slide) for the shifted window
// families to map one-to-one onto the absolute ones.
func parseWindows(list string, stderr io.Writer) ([]winSpec, int64) {
	var specs []winSpec
	var step int64
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		arg := func(i int) int64 {
			if i >= len(parts) {
				return 0
			}
			n, err := strconv.ParseInt(strings.TrimSpace(parts[i]), 10, 64)
			if err != nil || n <= 0 {
				return -1
			}
			return n
		}
		length, slide, gap := arg(1), arg(2), int64(0)
		if parts[0] == "session" {
			gap, length = length, 0
			if gap == 0 {
				gap = -1 // session needs an explicit positive gap
			}
		} else if length <= 0 {
			length = -1
		}
		if length < 0 || slide < 0 || gap < 0 || len(parts) > 3 {
			fmt.Fprintf(stderr, "-windows: malformed entry %q (want kind:length[:slide], session:gap, or count:n)\n", item)
			return nil, 0
		}
		spec, s, ok := makeWindow(parts[0], length, slide, gap, stderr)
		if !ok {
			return nil, 0
		}
		specs = append(specs, spec)
		step = lcmStep(step, s)
	}
	if len(specs) == 0 {
		fmt.Fprintln(stderr, "-windows: empty window list")
		return nil, 0
	}
	return specs, step
}

// lcmStep folds one member's rebase step into the fleet-wide one. Zero means
// "no constraint" (sessions are translation-invariant, count windows ignore
// timestamps). Wildly coprime slides can push the LCM past any real stream's
// span; beyond ~50 days of milliseconds rebasing is disabled instead of
// risking overflow — the run then pays the empty-window walk it would avoid.
func lcmStep(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	g := a
	for x := b; x != 0; g, x = x, g%x {
	}
	if l := a / g * b; l > 0 && l <= 1<<32 {
		return l
	}
	return 0
}

// rebaser shifts event timestamps into a small range before they reach the
// watermarker and operator, and shifts window bounds back on the way out.
// The offset is fixed at the first event: the largest multiple of step at or
// below firstTS-margin (clamped to 0, so small-timestamp streams pass through
// untouched). The margin covers the watermark lag plus the allowed lateness,
// so every event the operator would accept still rebases to a non-negative
// time. Because the offset is a multiple of the slide, the rebased window
// family maps one-to-one onto the absolute one — printed bounds are exact;
// the only difference is that the a-priori-empty windows between time zero
// and the first tuple are never materialized.
type rebaser struct {
	step   int64 // 0 disables rebasing
	margin int64
	off    int64
	set    bool
}

func (rb *rebaser) shift(ts int64) int64 {
	if rb.step <= 0 {
		return ts
	}
	if !rb.set {
		rb.set = true
		if lo := ts - rb.margin; lo > 0 {
			rb.off = lo - (lo % rb.step)
		}
	}
	return ts - rb.off
}

func (rb *rebaser) unshift(t int64) int64 { return t + rb.off }

// env carries one run's validated flags, rebaser, metrics server and I/O into
// the run path, which is generic over the value and aggregate types.
type env struct {
	opts      core.Options
	specs     []winSpec
	fleet     bool // an unkeyed -windows run shares the set through a fleet
	policy    ops.Policy
	demo      int
	ooo       float64
	budget    int64
	spillDir  string
	ckptDir   string
	breaker   bool
	dlqDir    string
	wm        stream.Watermarker
	rb        *rebaser
	keyRows   bool // prefix rows with k<key>
	queryRows bool // prefix rows with q<id>
	ms        *metricsServer
	ctx       context.Context
	stdin     io.Reader
	stdout    io.Writer
	stderr    io.Writer
}

// mode is what separates an unkeyed run, whose operator ingests float64
// values, from a -keyed one, whose operator ingests keyed stream.Tuple values.
type mode[V any] struct {
	val   func(V) float64      // the value the aggregate reads
	keyOf func(V) int32        // partitions a keyed run; nil when unkeyed
	demo  func(stream.Tuple) V // a generated demo event's value
	// parse builds the event value from a CSV line's value and the fields
	// after it; ok=false rejects the line as malformed.
	parse func(v float64, rest []string) (V, bool)
}

// unkeyed runs stay on float64: a stream.Tuple would widen every tuple the
// operator stores by a key it never reads.
var unkeyed = mode[float64]{
	val:  func(v float64) float64 { return v },
	demo: stream.Val,
	// Unkeyed lines ignore any fields after the value.
	parse: func(v float64, _ []string) (float64, bool) { return v, true },
}

// runMode resolves the -agg name over the mode's value type.
func runMode[V any](e *env, agg string, m mode[V]) int {
	switch agg {
	case "sum":
		return runAgg(e, m, aggregate.Sum(m.val))
	case "count":
		return runAgg(e, m, aggregate.Count[V]())
	case "mean":
		return runAgg(e, m, aggregate.Mean(m.val))
	case "min":
		return runAgg(e, m, aggregate.Min(m.val))
	case "max":
		return runAgg(e, m, aggregate.Max(m.val))
	case "median":
		return runAgg(e, m, aggregate.Median(m.val))
	case "p90":
		return runAgg(e, m, aggregate.Percentile(0.9, m.val))
	case "m4":
		return runAgg(e, m, aggregate.M4(m.val))
	default:
		fmt.Fprintf(e.stderr, "unknown aggregation %q\n", agg)
		return 2
	}
}

// runAgg builds the run's operator — per-key operators for -keyed, a sharing
// fleet for -windows, a bare slicing core otherwise — and runs it.
func runAgg[V, A, Out any](e *env, m mode[V], f aggregate.Function[V, A, Out]) int {
	newOp := func() (*core.Aggregator[V, A, Out], error) {
		ag := core.New(f, e.opts)
		return ag, addQueries[V](ag, e.specs)
	}
	var op operator[V, core.Result[Out]]
	var err error
	if e.fleet {
		fl := fleet.New(f, fleet.Options{Options: e.opts})
		if err = addQueries[V](fl, e.specs); err == nil {
			fmt.Fprintf(e.stderr, "%s\n", fl)
		}
		op = fl
	} else {
		// A keyed run builds this operator only to validate the query set
		// up front: its per-key operators are built mid-stream.
		op, err = newOp()
	}
	if err != nil {
		fmt.Fprintln(e.stderr, err)
		return 2
	}
	if m.keyOf != nil {
		return runKeyed(e, m, newOp)
	}
	return runLoop(e, m, op, func(w io.Writer, rs []core.Result[Out]) {
		for i := range rs {
			writeRow(w, e, 0, &rs[i])
		}
	})
}

// operator is the processing surface every run shape shares: a single window
// on a bare slicing core, a -windows fleet sharing physical work across its
// members (dedup + factor-window rewrite, docs/SHARING.md), or the per-key
// operators of -keyed. The run loop, the checkpoint seal/restore path, and
// the drain are written once over it.
type operator[V, R any] interface {
	ProcessElement(stream.Event[V]) []R
	ProcessWatermark(int64) []R
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// runLoop runs op over the run's source: restore, process through the
// buffered or guarded egress, seal and drain. format renders a result batch.
func runLoop[V, R any](e *env, m mode[V], op operator[V, R], format func(io.Writer, []R)) int {
	rb, ms, stderr := e.rb, e.ms, e.stderr

	// The same recovery metric series the dataflow engine exposes, so a
	// scraped scotty run reports its checkpoint activity under familiar
	// names: restores count as recoveries, the final snapshot observes its
	// size and write latency.
	var recoveries *obs.Counter
	var ckptBytes, ckptDurMS *obs.Histogram
	if ms != nil && e.ckptDir != "" {
		recoveries = ms.reg.Counter("engine_recoveries_total")
		ckptBytes = ms.reg.Histogram("checkpoint_bytes", obs.ExponentialBounds(64, 4, 12))
		ckptDurMS = ms.reg.Histogram("checkpoint_duration_ms", nil)
	}
	ckptPath := ""
	if e.ckptDir != "" {
		if err := os.MkdirAll(e.ckptDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
		ckptPath = filepath.Join(e.ckptDir, "final.sck")
		if data, err := os.ReadFile(ckptPath); err == nil {
			if err := restoreFinal(op, rb, data); err != nil {
				fmt.Fprintf(stderr, "checkpoint: ignoring %s: %v\n", ckptPath, err)
			} else {
				fmt.Fprintf(stderr, "checkpoint: restored state from %s\n", ckptPath)
				if recoveries != nil {
					recoveries.Inc()
				}
			}
		}
	}

	out := bufio.NewWriter(e.stdout)
	defer out.Flush()
	var sink *rowSink
	if e.breaker {
		var err error
		if sink, err = newRowSink(e.stdout, e.dlqDir, ms, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer sink.finish(stderr)
	}
	emit := func(rs []R) {
		if sink != nil {
			// Guarded egress writes each result batch straight to the
			// underlying writer (the sticky bufio error state would defeat
			// per-batch retry), so a rejected batch is dead-lettered whole.
			if len(rs) == 0 {
				return
			}
			var buf bytes.Buffer
			format(&buf, rs)
			sink.write(buf.Bytes(), len(rs))
			return
		}
		format(out, rs)
	}
	// /debug/slices serves the slice layout of core and fleet operators.
	publish := func() {}
	if sl, ok := op.(interface{ SliceSnapshot() []core.SliceInfo }); ok && ms != nil {
		publish = func() {
			s := sl.SliceSnapshot()
			for i := range s {
				s[i].Start = rb.unshift(s[i].Start)
				s[i].End = rb.unshift(s[i].End)
			}
			ms.slices.Store(s)
		}
	}
	if ms != nil {
		ms.ready.Store(true) // the run loop is up: /healthz turns ready
	}
	readErr := feed(e, m, func(it stream.Item[V]) {
		if it.Kind == stream.KindEvent {
			emit(op.ProcessElement(it.Event))
			return
		}
		emit(op.ProcessWatermark(it.Watermark))
		// Watermarks bound the output and debug staleness for a streaming
		// source: flush emitted rows and publish a fresh slice snapshot.
		out.Flush()
		publish()
	})

	// Shutdown: snapshot first, then drain. The snapshot captures the
	// resumable mid-stream state (buffered slices plus the true watermark
	// position); the MaxTime drain that follows flushes every pending
	// window as a provisional final row. A restored run re-emits those
	// windows once the continuation stream completes them for real.
	if ckptPath != "" {
		start := time.Now()
		data, err := sealFinal(op, rb)
		if err == nil {
			err = writeFileAtomic(ckptPath, data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
		if ckptBytes != nil {
			ckptBytes.Observe(float64(len(data)))
			ckptDurMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
		fmt.Fprintf(stderr, "checkpoint: wrote %s (%d bytes)\n", ckptPath, len(data))
	}
	emit(op.ProcessWatermark(stream.MaxTime))
	out.Flush()
	publish()
	if readErr != nil {
		fmt.Fprintf(stderr, "input: %v\n", readErr)
		return 1
	}
	return 0
}

// writeRow renders one result row as "[start, end)\t n=N\t value", prefixed
// with k<key> in keyed runs and with q<id> where several queries share the
// output. Time bounds are shifted back by the rebase offset.
func writeRow[Out any](w io.Writer, e *env, key int32, r *core.Result[Out]) {
	tag := ""
	if r.Update {
		tag = "  (update)"
	}
	s, end := r.Start, r.End
	if r.Measure == stream.Time {
		s, end = e.rb.unshift(s), e.rb.unshift(end)
	}
	if e.keyRows {
		fmt.Fprintf(w, "k%d\t", key)
	}
	if e.queryRows {
		fmt.Fprintf(w, "q%d\t", r.Query)
	}
	fmt.Fprintf(w, "[%d, %d)\t n=%d\t %v%s\n", s, end, r.N, r.Value, tag)
}

// sealFinal wraps the operator snapshot together with the rebase offset.
// The snapshot stores rebased window bounds and the watermark position, so a
// resumed run must keep shifting by the same offset: recomputing it from the
// continuation's first (later) event would misalign the restored state and
// the new tuples, and every printed bound would be off by the difference.
// The core, fleet and keyed snapshot codecs are distinct (a fleet snapshot
// nests the core's plus the sharing plan), so a checkpoint written by one run
// shape is rejected — and ignored with a warning — when restored by another.
// A keyed snapshot folds cold keys' spilled blobs in, so a budgeted run's
// checkpoint is complete whatever was spilled at shutdown.
func sealFinal[V, R any](op operator[V, R], rb *rebaser) ([]byte, error) {
	state, err := op.Snapshot()
	if err != nil {
		return nil, err
	}
	enc := checkpoint.NewEncoder()
	enc.Int64(rb.off)
	enc.Bool(rb.set)
	enc.Bytes(state)
	return enc.Seal(), nil
}

// restoreFinal is the inverse of sealFinal: operator state into op, the
// recorded rebase offset into rb (pinned, so the first continuation event
// does not recompute it).
func restoreFinal[V, R any](op operator[V, R], rb *rebaser, data []byte) error {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	off := dec.Int64()
	set := dec.Bool()
	state := dec.Bytes()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := op.Restore(state); err != nil {
		return err
	}
	rb.off, rb.set = off, set
	return nil
}

// writeFileAtomic writes data via a temp file and rename, so a crash during
// shutdown never leaves a half-written final.sck for the next run to trust
// (the snapshot codec would reject a torn file anyway; this avoids even
// producing one).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// rowSink is scotty's guarded egress: every result-row batch passes a
// retry/circuit-breaker guard (ops defaults: 4 attempts with capped backoff;
// 5 consecutive failures open the breaker for 100ms) before reaching the
// output writer. Permanently rejected batches are dead-lettered — counted in
// scotty_rows_dead_lettered_total and, with -dlq-dir, captured as durable
// records — so a wedged or flapping consumer degrades the run instead of
// killing or silently truncating it. Delivery is at-least-once: a batch whose
// write failed midway may reappear whole in the DLQ.
type rowSink struct {
	w      io.Writer
	stderr io.Writer
	guard  ops.Guard
	brk    *ops.Breaker
	dlq    *ops.DLQ
	dead   *obs.Counter
}

func newRowSink(w io.Writer, dlqDir string, ms *metricsServer, stderr io.Writer) (*rowSink, error) {
	// dead counts for the exit summary; with -metrics it is the served series.
	s := &rowSink{w: w, stderr: stderr, brk: ops.NewBreaker(ops.BreakerConfig{}), dead: &obs.Counter{}}
	s.guard = ops.Guard{Breaker: s.brk}
	if ms != nil {
		s.dead = ms.reg.Counter("scotty_rows_dead_lettered_total")
		ms.breaker.Store(s.brk.State) // /healthz reports (and gates on) the live state
	}
	if dlqDir != "" {
		if err := os.MkdirAll(dlqDir, 0o755); err != nil {
			return nil, fmt.Errorf("dlq: %w", err)
		}
		dlq, err := ops.OpenDLQ(filepath.Join(dlqDir, "rows.dlq"))
		if err != nil {
			return nil, fmt.Errorf("dlq: %w", err)
		}
		s.dlq = dlq
	}
	return s, nil
}

// write offers one rendered batch to the guarded writer; rejection
// dead-letters all n rows.
func (s *rowSink) write(rows []byte, n int) {
	_, err := s.guard.Do(func() error {
		_, werr := s.w.Write(rows)
		return werr
	})
	if err == nil {
		return
	}
	s.dead.Add(int64(n))
	if s.dlq != nil {
		if aerr := s.dlq.Append(ops.Record{Reason: err.Error(), Count: n, Payload: rows}); aerr != nil {
			fmt.Fprintf(s.stderr, "dlq: %v\n", aerr)
		}
	}
}

// finish prints the loss summary and releases the DLQ handle.
func (s *rowSink) finish(stderr io.Writer) {
	trips, recoveries := s.brk.Counts()
	if n := s.dead.Value(); n > 0 || trips > 0 {
		fmt.Fprintf(stderr, "breaker: %d rows dead-lettered (trips %d, recoveries %d)\n", n, trips, recoveries)
	}
	if s.dlq != nil {
		if err := s.dlq.Close(); err != nil {
			fmt.Fprintf(stderr, "dlq: %v\n", err)
		}
	}
}

// feed runs the demo stream or stdin's CSV lines into op, behind the
// -backpressure edge for a non-block policy, and returns the read error. No
// source emits the closing MaxTime watermark: shutdown drains the operator
// itself, after the resumable snapshot, which must not see MaxTime as the
// restored watermark position.
func feed[V any](e *env, m mode[V], op func(stream.Item[V])) error {
	source := func(send func(stream.Item[V])) error {
		if e.demo == 0 {
			return feedCSV(e, m, send)
		}
		for _, it := range stream.Prepare(e.wm, demoEvents(e.demo, e.ooo, m.demo)) {
			if e.ctx.Err() != nil || it.Kind == stream.KindWatermark && it.Watermark == stream.MaxTime {
				return nil
			}
			send(it)
		}
		return nil
	}
	if e.policy == ops.Block {
		return source(op)
	}

	// A non-block policy decouples ingest from processing through a bounded
	// ops.Edge: the feed goroutine parses and sends, the operator loop
	// receives, and under overload whole events are dropped by the policy —
	// counted, never silent. Watermarks are control flow and never dropped.
	cfg := ops.EdgeConfig[stream.Item[V]]{
		Capacity: ingestQueueLen,
		Policy:   e.policy,
		CanDrop:  func(it stream.Item[V]) bool { return it.Kind == stream.KindEvent },
	}
	if e.ms != nil {
		drops := e.ms.reg.Counter("scotty_events_dropped_total", obs.L("reason", e.policy.String()))
		cfg.OnDrop = func(stream.Item[V]) { drops.Inc() }
	}
	edge := ops.NewEdge(cfg)
	var err error
	go func() {
		err = source(func(it stream.Item[V]) { edge.Send(it) })
		edge.Close()
	}()
	for {
		it, ok := edge.Recv()
		if !ok {
			break
		}
		op(it)
	}
	if n := edge.Dropped(); n > 0 {
		fmt.Fprintf(e.stderr, "backpressure: dropped %d events (%s)\n", n, e.policy)
	}
	return err
}

func demoEvents[V any](demo int, ooo float64, val func(stream.Tuple) V) []stream.Event[V] {
	raw := stream.Generate(stream.Football(), demo, 1)
	ev := make([]stream.Event[V], len(raw))
	for i, e := range raw {
		ev[i] = stream.Event[V]{Time: e.Time, Seq: e.Seq, Value: val(e.Value)}
	}
	return stream.Apply(stream.Disorder{Fraction: ooo, MaxDelay: 2000, Seed: 7}, ev)
}

// maxLine bounds an input line; a longer one is reported and skipped.
const maxLine = 64 << 10

// inputLine is one line read; an over-long one arrives as its head, marked long.
type inputLine struct {
	text string
	long bool
}

// feedCSV parses "timestamp-ms,value[,...]" lines as they arrive and hands
// each event — interleaved with due watermarks — to op immediately, so a live
// -metrics endpoint observes the run in progress. Timestamps are rebased
// before the watermarker so epoch-scale inputs stay cheap. Canceling ctx
// abandons the (possibly blocked) read.
func feedCSV[V any](e *env, m mode[V], op func(stream.Item[V])) error {
	// The reader blocks in Read with no way to interrupt it, so it runs in
	// its own goroutine; the processing loop below stays responsive to ctx.
	// After cancellation the goroutine parks on the unbuffered send until
	// the input closes — for a real process that is at exit anyway.
	lines := make(chan inputLine)
	var readErr error
	go func() {
		defer close(lines)
		br := bufio.NewReaderSize(e.stdin, maxLine)
		for {
			b, err := br.ReadSlice('\n')
			l := inputLine{long: err == bufio.ErrBufferFull}
			if l.long {
				b = b[:64] // the head quoted in the report
			}
			l.text = string(b)
			for err == bufio.ErrBufferFull { // the rest of an over-long line
				_, err = br.ReadSlice('\n')
			}
			if l.text != "" {
				select {
				case lines <- l:
				case <-e.ctx.Done():
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}()
	feeder := stream.NewFeeder[V](e.wm)
	var buf []stream.Item[V]
	seq := int64(0)
	for {
		var l inputLine
		var ok bool
		select {
		case <-e.ctx.Done():
			return nil
		case l, ok = <-lines:
		}
		if !ok {
			return readErr
		}
		if l.long {
			fmt.Fprintf(e.stderr, "skipping malformed line: %q... (%d bytes or more)\n", l.text, maxLine)
			continue
		}
		line := strings.TrimSpace(l.text)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 {
			fmt.Fprintf(e.stderr, "skipping malformed line: %q\n", line)
			continue
		}
		ts, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		v, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		val, ok := m.parse(v, parts[2:])
		if err1 != nil || err2 != nil || !ok {
			fmt.Fprintf(e.stderr, "skipping malformed line: %q\n", line)
			continue
		}
		buf = feeder.Feed(buf[:0], stream.Event[V]{Time: e.rb.shift(ts), Seq: seq, Value: val})
		seq++
		for _, it := range buf {
			op(it)
		}
	}
}
