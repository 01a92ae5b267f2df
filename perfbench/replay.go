package main

import (
	"fmt"
	"strings"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/engine"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/stream"
)

// operator is one layer's public processing surface, with the aggregate
// types erased: every call reports how many result rows it emitted.
type operator[V any] struct {
	elem  func(stream.Event[V]) int
	wm    func(int64) int
	batch func([]stream.Item[V]) int // ProcessBatch; the core only
	stats func() core.Stats
	// counts reports layer-specific counters after a replay.
	counts func(m map[string]float64)
}

// coreOptions are the operator options scotty runs with on CSV input.
func coreOptions(reg *obs.Registry) core.Options {
	return core.Options{Lateness: lateness, Store: core.StoreLazy, Metrics: reg}
}

func newCore[V, A, Out any](w workload, f aggregate.Function[V, A, Out], reg *obs.Registry) operator[V] {
	ag := core.New(f, coreOptions(reg))
	for _, def := range w.defs() {
		ag.MustAddQuery(def)
	}
	return operator[V]{
		elem:  func(e stream.Event[V]) int { return len(ag.ProcessElement(e)) },
		wm:    func(t int64) int { return len(ag.ProcessWatermark(t)) },
		batch: func(items []stream.Item[V]) int { return len(ag.ProcessBatch(items)) },
		stats: ag.Stats,
	}
}

func newFleet[V, A, Out any](w workload, f aggregate.Function[V, A, Out], reg *obs.Registry) operator[V] {
	fl := fleet.New(f, fleet.Options{Options: coreOptions(reg)})
	for _, def := range w.defs() {
		fl.MustAddQuery(def)
	}
	return operator[V]{
		elem:  func(e stream.Event[V]) int { return len(fl.ProcessElement(e)) },
		wm:    func(t int64) int { return len(fl.ProcessWatermark(t)) },
		stats: fl.Aggregator().Stats,
		counts: func(m map[string]float64) {
			p := fl.Plan()
			m["fleet.physical_queries"] = float64(p.Physical)
			m["fleet.slice_touches_saved"] = float64(p.TouchesSaved)
		},
	}
}

// newKeyed builds the keyed operator over tuples. Each key's aggregator gets
// fresh window definitions, as core.NewKeyed requires.
func newKeyed[A, Out any](w workload, f aggregate.Function[stream.Tuple, A, Out], reg *obs.Registry) operator[stream.Tuple] {
	wk := w
	wk.keyed = true
	k := core.NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 0, func() *core.Aggregator[stream.Tuple, A, Out] {
		ag := core.New(f, coreOptions(reg))
		for _, def := range wk.defs() {
			ag.MustAddQuery(def)
		}
		return ag
	})
	return operator[stream.Tuple]{
		elem:  func(e stream.Event[stream.Tuple]) int { return len(k.ProcessElement(e)) },
		wm:    func(t int64) int { return len(k.ProcessWatermark(t)) },
		stats: k.Stats,
		counts: func(m map[string]float64) {
			m["core.keyed.keys"] = float64(k.Keys())
		},
	}
}

func ident(v float64) float64 { return v }

// Operator factories per layer. Unkeyed layers see the float64 values scotty
// parses from a "ts,value" line; the keyed layer sees tuples, with key 0 for
// input lines that carry no key (as scotty -keyed would).
func coreLayer(w workload, reg *obs.Registry) operator[float64] {
	if w.agg == "p90" {
		return newCore(w, aggregate.Percentile[float64](0.9, ident), reg)
	}
	return newCore(w, aggregate.Sum[float64](ident), reg)
}

func fleetLayer(w workload, reg *obs.Registry) operator[float64] {
	if w.agg == "p90" {
		return newFleet(w, aggregate.Percentile[float64](0.9, ident), reg)
	}
	return newFleet(w, aggregate.Sum[float64](ident), reg)
}

func keyedLayer(w workload, reg *obs.Registry) operator[stream.Tuple] {
	if w.agg == "p90" {
		return newKeyed(w, aggregate.Percentile(0.9, stream.Val), reg)
	}
	return newKeyed(w, aggregate.Sum(stream.Val), reg)
}

// rebased returns the events as scotty hands them to its watermarker:
// shifted down by the rebase offset, with sequence numbers of parsed lines.
func rebased(w workload, in *input) []stream.Event[stream.Tuple] {
	off := rebaseOffset(w.step(), in.events[0].Time)
	out := make([]stream.Event[stream.Tuple], len(in.events))
	for i, e := range in.events {
		out[i] = stream.Event[stream.Tuple]{Time: e.Time - off, Seq: int64(i), Value: e.Value}
	}
	return out
}

// model is the expected behaviour of one scotty run over the input, from a
// replay of the same events through the operator scotty builds for the
// workload.
type model struct {
	// rowLine[k] is the input line whose processing made output row k due:
	// the line whose arrival emitted the watermark for rows emitted on a
	// watermark, the late event's own line for update rows, and the last
	// line for the rows of the end-of-input drain.
	rowLine []int32
	// rowsBeforeDrain counts the rows flushed up to the last periodic
	// watermark, and tuplesAtLastWM the operator's ingested tuples at that
	// watermark: what a /metrics scrape shows once those rows are out.
	rowsBeforeDrain int
	tuplesAtLastWM  int64
}

// buildModel replays the input through the scotty-path operator of the
// workload: the fleet for a multi-query workload, the keyed operator for a
// keyed one, the slicing core otherwise.
func buildModel(w workload, in *input) *model {
	ev := rebased(w, in)
	if w.keyed {
		return replayModel(in, ev, keyedLayer(w, nil))
	}
	fev := floatEvents(ev)
	if len(w.queries) > 1 {
		return replayModel(in, fev, fleetLayer(w, nil))
	}
	return replayModel(in, fev, coreLayer(w, nil))
}

func floatEvents(ev []stream.Event[stream.Tuple]) []stream.Event[float64] {
	out := make([]stream.Event[float64], len(ev))
	for i, e := range ev {
		out[i] = stream.Event[float64]{Time: e.Time, Seq: e.Seq, Value: e.Value.V}
	}
	return out
}

func replayModel[V any](in *input, ev []stream.Event[V], op operator[V]) *model {
	m := &model{}
	f := stream.NewFeeder[V](stream.Watermarker{Period: wmPeriod, Lag: wmLag})
	var buf []stream.Item[V]
	for j, e := range ev {
		line := in.eventLine[j]
		buf = f.Feed(buf[:0], e)
		for _, it := range buf {
			var n int
			if it.Kind == stream.KindWatermark {
				n = op.wm(it.Watermark)
			} else {
				n = op.elem(it.Event)
			}
			for ; n > 0; n-- {
				m.rowLine = append(m.rowLine, line)
			}
			if it.Kind == stream.KindWatermark {
				m.rowsBeforeDrain = len(m.rowLine)
				m.tuplesAtLastWM = op.stats().Tuples
			}
		}
	}
	last := int32(len(in.lineEnd) - 1)
	for n := op.wm(stream.MaxTime); n > 0; n-- {
		m.rowLine = append(m.rowLine, last)
	}
	return m
}

// span is one timed interval of the traced replay. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span, -1 for
// a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// totals sums span durations per name, children included.
func (t *tracer) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// feed runs the watermarker over the events and returns the prepared items,
// closed by the MaxTime watermark. With a tracer it records one "stream"
// span per watermark interval; without one it only times the whole pass.
func feed[V any](ev []stream.Event[V], tr *tracer, root int) ([]stream.Item[V], time.Duration) {
	items := make([]stream.Item[V], 0, len(ev)+len(ev)/64+1)
	f := stream.NewFeeder[V](stream.Watermarker{Period: wmPeriod, Lag: wmLag})
	start := time.Now()
	if tr == nil {
		for _, e := range ev {
			items = f.Feed(items, e)
		}
		return f.Close(items), time.Since(start)
	}
	sp := tr.begin("stream", root)
	for _, e := range ev {
		n := len(items)
		items = f.Feed(items, e)
		if items[n].Kind == stream.KindWatermark {
			tr.end(sp)
			sp = tr.begin("stream", root)
		}
	}
	items = f.Close(items)
	tr.end(sp)
	return items, time.Since(start)
}

// replayStats is what one layer pass over the items measured.
type replayStats struct {
	elapsed time.Duration
	results int
	slices  int // largest slice count seen at a watermark
	wmCalls int
	stats   core.Stats
}

// replay drives op over the items. With a tracer it records, per watermark
// interval, one span named after the layer around the interval's calls and a
// child span around its ProcessWatermark call.
func replay[V any](name string, op operator[V], items []stream.Item[V], tr *tracer, root int) replayStats {
	var rs replayStats
	start := time.Now()
	if tr == nil {
		for _, it := range items {
			if it.Kind == stream.KindEvent {
				rs.results += op.elem(it.Event)
				continue
			}
			rs.results += op.wm(it.Watermark)
			rs.wmCalls++
		}
	} else {
		sp := tr.begin(name, root)
		for _, it := range items {
			if it.Kind == stream.KindEvent {
				rs.results += op.elem(it.Event)
				continue
			}
			w := tr.begin(name+".ProcessWatermark", sp)
			rs.results += op.wm(it.Watermark)
			tr.end(w)
			tr.end(sp)
			rs.wmCalls++
			if s := op.stats().Slices; s > rs.slices {
				rs.slices = s
			}
			sp = tr.begin(name, root)
		}
		tr.end(sp)
	}
	rs.elapsed = time.Since(start)
	rs.stats = op.stats()
	return rs
}

// batchReplay drives op's ProcessBatch over the items in 256-item chunks.
func batchReplay[V any](op operator[V], items []stream.Item[V]) time.Duration {
	const chunk = 256
	start := time.Now()
	for i := 0; i < len(items); i += chunk {
		op.batch(items[i:min(i+chunk, len(items))])
	}
	return time.Since(start)
}

// engineReplay runs the items through engine.Run with one partition whose
// processor is op, and reports events/s and the time the source stalled on
// the partition queue.
func engineReplay[V any](op operator[V], items []stream.Item[V]) (eps, stallMS float64, err error) {
	reg := obs.NewRegistry()
	st, err := engine.Run(engine.Config[V]{
		Parallelism: 1,
		Metrics:     reg,
		NewProcessor: func(int) engine.Processor[V] {
			return engine.ProcessorFunc[V](func(it stream.Item[V]) int {
				if it.Kind == stream.KindEvent {
					return op.elem(it.Event)
				}
				return op.wm(it.Watermark)
			})
		},
	}, items)
	if err != nil {
		return 0, 0, fmt.Errorf("engine replay: %w", err)
	}
	var stallNS int64
	for _, m := range reg.Snapshot() {
		if m.Value != nil && strings.HasPrefix(m.Name, "engine_queue_stall_ns_total") {
			stallNS += *m.Value
		}
	}
	return st.Throughput(), float64(stallNS) / 1e6, nil
}
