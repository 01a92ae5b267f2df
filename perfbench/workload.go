package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Watermark schedule and allowed lateness, as scotty applies them to CSV
// input (cmd/scotty: Watermarker{Period: -watermark, Lag: 2001} and the
// -lateness default). The replay and the rebase model use the same values.
const (
	wmPeriod = 1000
	wmLag    = 2001
	lateness = 2000
)

// query is one window query of a workload, in the terms both scotty's flags
// and the reference oracle understand.
type query struct {
	kind   string // "sliding", "tumbling" or "session"
	length int64  // window length (periodic)
	slide  int64  // slide step (periodic; equals length for tumbling)
	gap    int64  // inactivity gap (session)
}

func (q query) def(keyed bool) window.Definition {
	switch q.kind {
	case "session":
		if keyed {
			return window.Session[stream.Tuple](q.gap)
		}
		return window.Session[float64](q.gap)
	case "tumbling":
		return window.Tumbling(stream.Time, q.length)
	default:
		return window.Sliding(stream.Time, q.length, q.slide)
	}
}

func (q query) oracle() reference.Query[float64] {
	if q.kind == "session" {
		return reference.Query[float64]{Kind: reference.Session, Gap: q.gap}
	}
	return reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: q.length, Slide: q.slide}
}

// inFamily reports whether [s, e) is one of the query's windows. Only
// periodic queries have windows independent of the data.
func (q query) inFamily(s, e int64) bool {
	return q.kind != "session" && e-s == q.length && s%q.slide == 0
}

// workload is one input and scotty command line of the benchmark.
type workload struct {
	name    string
	agg     string // "sum" or "p90"
	keyed   bool
	queries []query
	// events is the number of input events of every run of the workload.
	events int
	// rate is the open-loop input rate of the latency trials in lines/s,
	// near half of scotty's saturated throughput on the workload.
	rate float64
	// disorder is the fraction of events delayed by up to maxDelay ms of
	// event time: above the watermark lag, so late events produce update
	// rows, and below lag plus lateness, so none is dropped.
	disorder float64
	maxDelay int64
	// malformed is the fraction of injected lines scotty must reject.
	malformed float64
	// keys and zipfS, zipfV shape the Zipf key distribution of keyed input.
	keys         int
	zipfS, zipfV float64
}

// workloads are the benchmark's inputs; README.md gives the full rationale.
var workloads = []workload{
	// The headline case: one sliding sum over in-order CSV. Read, parse,
	// handoff, format and write dominate; the operator is a few percent.
	// The malformed lines keep a faster parser honest.
	{
		name:      "csv-sliding",
		agg:       "sum",
		queries:   []query{{kind: "sliding", length: 10000, slide: 1000}},
		events:    1_800_000,
		rate:      360_000,
		malformed: 0.001,
	},
	// A correlated five-query p90 fleet over disordered input whose late
	// events emit update rows: the fleet layer, the core's out-of-order
	// path and the GC dominate, ingest barely shows.
	{
		name: "fleet-holistic-ooo",
		agg:  "p90",
		queries: []query{
			{kind: "sliding", length: 10000, slide: 1000},
			{kind: "sliding", length: 20000, slide: 1000},
			{kind: "sliding", length: 30000, slide: 2000},
			{kind: "tumbling", length: 5000, slide: 5000},
			{kind: "session", gap: 1000},
		},
		events:   180_000,
		rate:     40_000,
		disorder: 0.2,
		maxDelay: 2200,
	},
	// A keyed tumbling sum over Zipf keys: about one output row per two
	// input lines, and every watermark is broadcast to every key's operator.
	{
		name:    "keyed-egress",
		agg:     "sum",
		keyed:   true,
		queries: []query{{kind: "tumbling", length: 10000, slide: 10000}},
		events:  150_000,
		rate:    70_000,
		keys:    10_000,
		zipfS:   1.1,
		zipfV:   200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// args is scotty's command line for the workload.
func (w workload) args() []string {
	a := []string{"-agg", w.agg}
	if w.keyed {
		a = append(a, "-keyed")
	}
	if len(w.queries) == 1 {
		q := w.queries[0]
		a = append(a, "-window", q.kind, "-length", strconv.FormatInt(q.length, 10))
		if q.kind == "sliding" {
			a = append(a, "-slide", strconv.FormatInt(q.slide, 10))
		}
		return a
	}
	list := ""
	for i, q := range w.queries {
		if i > 0 {
			list += ","
		}
		switch q.kind {
		case "session":
			list += fmt.Sprintf("session:%d", q.gap)
		case "tumbling":
			list += fmt.Sprintf("tumbling:%d", q.length)
		default:
			list += fmt.Sprintf("sliding:%d:%d", q.length, q.slide)
		}
	}
	return append(a, "-windows", list)
}

func (w workload) defs() []window.Definition {
	out := make([]window.Definition, len(w.queries))
	for i, q := range w.queries {
		out[i] = q.def(w.keyed)
	}
	return out
}

// step is scotty's rebase step for the query set: the LCM of the periodic
// queries' slides (sessions impose none).
func (w workload) step() int64 {
	var l int64
	for _, q := range w.queries {
		if q.kind == "session" {
			continue
		}
		if l == 0 {
			l = q.slide
			continue
		}
		g := l
		for x := q.slide; x != 0; g, x = x, g%x {
		}
		l = l / g * q.slide
	}
	return l
}

func (w workload) maxLength() int64 {
	var m int64
	for _, q := range w.queries {
		if q.length > m {
			m = q.length
		}
	}
	return m
}

// input is one workload's generated CSV bytes and the events scotty parses
// from them, in arrival order with absolute epoch-millisecond timestamps.
type input struct {
	csv []byte
	// lineEnd[i] is the byte offset just past line i.
	lineEnd []int
	events  []stream.Event[stream.Tuple]
	// eventLine[j] is the line index event j is parsed from.
	eventLine []int32
	malformed int
}

// origin is the epoch-millisecond time of the first generated event. It is
// derived from the seed in whole hours, so it is a multiple of every window
// length and slide of every workload, plus a fixed 4321 ms that aligns it to
// none of them. Every seed thus places the first event at the same offset
// within its windows, and the number of leading partial windows (see
// checkOutput) is the same for every seed.
func origin(seed int64) int64 {
	h := (uint64(seed) * 0x9E3779B97F4A7C15) >> 40 % 100_000
	return 1_600_000_000_000 + int64(h)*3_600_000 + 4321
}

// generate builds the workload's input from the seed: football-profile
// events at an epoch origin, disordered and keyed as the workload asks, with
// malformed lines injected between them.
func generate(w workload, seed int64) *input {
	raw := stream.Generate(stream.Football(), w.events, seed)
	base := origin(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var zipf *rand.Zipf
	if w.keyed {
		zipf = rand.NewZipf(rng, w.zipfS, w.zipfV, uint64(w.keys-1))
	}
	for i := range raw {
		raw[i].Time += base
		key := int32(0)
		if zipf != nil {
			key = int32(zipf.Uint64())
		}
		raw[i].Value.Key = key
	}
	if w.disorder > 0 {
		raw = stream.Apply(stream.Disorder{Fraction: w.disorder, MaxDelay: w.maxDelay, Seed: seed}, raw)
	}

	in := &input{events: raw, eventLine: make([]int32, len(raw))}
	buf := make([]byte, 0, len(raw)*24)
	line := int32(0)
	for j, e := range raw {
		if w.malformed > 0 && rng.Float64() < w.malformed {
			buf = appendMalformed(buf, rng, e.Time)
			in.lineEnd = append(in.lineEnd, len(buf))
			in.malformed++
			line++
		}
		buf = strconv.AppendInt(buf, e.Time, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Value.V), 10)
		if w.keyed {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(e.Value.Key), 10)
		}
		buf = append(buf, '\n')
		in.lineEnd = append(in.lineEnd, len(buf))
		in.eventLine[j] = line
		line++
	}
	in.csv = buf
	return in
}

// appendMalformed appends one line scotty must reject with a "skipping
// malformed line" report: never blank and never a '#' comment, which scotty
// skips silently.
func appendMalformed(buf []byte, rng *rand.Rand, ts int64) []byte {
	switch rng.Intn(4) {
	case 0: // no value field
		buf = strconv.AppendInt(buf, ts, 10)
	case 1: // non-numeric value
		buf = strconv.AppendInt(buf, ts, 10)
		buf = append(buf, ",x"...)
	case 2: // non-numeric timestamp
		buf = append(buf, "t"...)
		buf = strconv.AppendInt(buf, ts, 10)
		buf = append(buf, ",1"...)
	default: // wrong separator
		buf = strconv.AppendInt(buf, ts, 10)
		buf = append(buf, ";7"...)
	}
	return append(buf, '\n')
}

// lineStart is the byte offset of line i.
func (in *input) lineStart(i int) int {
	if i == 0 {
		return 0
	}
	return in.lineEnd[i-1]
}

// rebaseOffset reproduces scotty's rebaser: the largest multiple of step at
// or below the first parsed event's time minus lag plus lateness.
func rebaseOffset(step, first int64) int64 {
	if step <= 0 {
		return 0
	}
	lo := first - (wmLag + lateness)
	if lo <= 0 {
		return 0
	}
	return lo - lo%step
}
