package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traced makes the per-layer run. It measures the scotty process at its
// boundary (rusage, pipes, GODEBUG=gctrace=1, a -metrics scrape) and replays
// the same rebased events in-process through each layer's public functions,
// with spans kept in memory and written to <work>/spans-<workload>-<seed>.jsonl.
func (b *bench) traced(work string) error {
	events := float64(len(b.in.events))

	plain := b.h.run(trialOpts{keep: true})
	b.accept("saturation", &plain)
	b.put("loadgen.write_blocked_ms", "ms", plain.blocked.Seconds()*1e3)
	b.put("scotty.wall_s", "s", plain.wall.Seconds())
	b.put("scotty.cpu_user_s", "s", plain.cpuUser.Seconds())
	b.put("scotty.cpu_sys_s", "s", plain.cpuSys.Seconds())
	b.put("scotty.bytes_in", "bytes", float64(len(b.in.csv)))
	b.put("scotty.rows_out", "count", float64(plain.rows))
	b.put("scotty.bytes_out", "bytes", float64(plain.bytesOut))
	if b.verdict.expected > 0 {
		b.put("check.failed_frac", "ratio", float64(b.verdict.mismatches())/float64(b.verdict.expected))
	}

	gc := b.h.run(trialOpts{env: []string{"GODEBUG=gctrace=1"}, scrape: true})
	b.accept("gctrace", &gc)
	cycles, pause := gcTrace(gc.stderr)
	b.put("scotty.gc_cycles", "count", float64(cycles))
	b.put("scotty.gc_pause_ms", "ms", pause)
	b.put("scotty.trace_overhead_pct", "%", (gc.wall.Seconds()/plain.wall.Seconds()-1)*100)

	one := b.h.run(trialOpts{env: []string{"GOMAXPROCS=1"}})
	b.accept("gomaxprocs1", &one)
	b.put("scotty.eps_gomaxprocs1", "1/s", events/one.wall.Seconds())

	paced := b.h.run(trialOpts{rate: b.w.rate})
	b.accept("paced", &paced)
	b.put("loadgen.late_ms_max", "ms", paced.lateMax.Seconds()*1e3)
	b.put("loadgen.latency_samples", "count", float64(len(paced.latMS)))
	sort.Float64s(paced.latMS)
	b.put("loadgen.latency_p99_ms", "ms", quantile(paced.latMS, 0.99))

	// The replay must model the binary: the ingested-tuple counter scotty
	// published at its last periodic watermark and its row count must equal
	// the replay's.
	if gc.err == nil && gc.scrapedTuples != b.model.tuplesAtLastWM {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: cross-check: scotty core_tuples_total %d, replay Stats().Tuples %d\n", gc.scrapedTuples, b.model.tuplesAtLastWM)
	}
	b.prov["scraped_core_tuples_total"] = gc.scrapedTuples
	b.prov["replay_tuples_at_last_watermark"] = b.model.tuplesAtLastWM

	tr, replayRows, err := b.replayLayers(plain.wall)
	if err != nil {
		return err
	}
	if plain.err == nil && plain.rows != replayRows {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: cross-check: scotty wrote %d rows, the replay emitted %d\n", plain.rows, replayRows)
	}
	return writeSpans(filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed)), tr)
}

// replayLayers replays the workload's events through every layer, untraced
// and traced, and records the per-layer metrics. Each layer is replayed on
// its own over the same items: the slicing core with all of the workload's
// queries, the fleet over the same queries, and the keyed operator (key 0
// for input lines that carry none). The layer scotty runs for the workload
// also runs behind engine.Run with one partition.
func (b *bench) replayLayers(scottyWall time.Duration) (*tracer, int, error) {
	w := b.w
	tev := rebased(w, b.in)
	if !w.keyed {
		for i := range tev {
			tev[i].Value.Key = 0
		}
	}
	fev := floatEvents(tev)
	events := float64(len(fev))

	// Untraced passes: the reference for the tracing overhead.
	fitems, feedPlain := feed(fev, nil, -1)
	titems, _ := feed(tev, nil, -1)
	untraced := feedPlain
	untraced += replay("core", coreLayer(w, nil), fitems, nil, -1).elapsed
	untraced += replay("fleet", fleetLayer(w, nil), fitems, nil, -1).elapsed
	untraced += replay("core.keyed", keyedLayer(w, nil), titems, nil, -1).elapsed

	tr := &tracer{t0: time.Now()}
	root := tr.begin("replay", -1)
	_, feedTraced := feed(fev, tr, root)
	traced := feedTraced
	coreOp, fleetOp, keyedOp := coreLayer(w, nil), fleetLayer(w, nil), keyedLayer(w, nil)
	cr := replay("core", coreOp, fitems, tr, root)
	fr := replay("fleet", fleetOp, fitems, tr, root)
	kr := replay("core.keyed", keyedOp, titems, tr, root)
	tr.end(root)
	traced += cr.elapsed + fr.elapsed + kr.elapsed

	self, total := tr.selfTimes(), tr.totals()
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / events }
	perCall := func(d time.Duration, calls int) float64 { return d.Seconds() * 1e6 / float64(max(calls, 1)) }

	b.put("stream.feed_ns_per_event", "ns", perEvent(total["stream"]))
	b.put("stream.watermarks", "count", float64(cr.wmCalls))
	b.put("core.element_ns_per_event", "ns", perEvent(self["core"]))
	b.put("core.watermark_us_per_call", "us", perCall(total["core.ProcessWatermark"], cr.wmCalls))
	b.put("core.results", "count", float64(cr.results))
	b.put("core.splits", "count", float64(cr.stats.Splits))
	b.put("core.merges", "count", float64(cr.stats.Merges))
	b.put("core.recomputes", "count", float64(cr.stats.Recomputes))
	b.put("core.slices_max", "count", float64(cr.slices))
	b.put("fleet.element_ns_per_event", "ns", perEvent(self["fleet"]))
	b.put("fleet.watermark_us_per_call", "us", perCall(total["fleet.ProcessWatermark"], fr.wmCalls))
	b.put("core.keyed.element_ns_per_event", "ns", perEvent(self["core.keyed"]))
	b.put("core.keyed.watermark_us_per_call", "us", perCall(total["core.keyed.ProcessWatermark"], kr.wmCalls))
	counts := map[string]float64{}
	fleetOp.counts(counts)
	keyedOp.counts(counts)
	for name, v := range counts {
		b.put(name, "count", v)
	}
	b.put("trace.overhead_pct", "%", (traced.Seconds()/untraced.Seconds()-1)*100)

	b.put("core.batch_ns_per_event", "ns", perEvent(batchReplay(coreLayer(w, nil), fitems)))

	// The layer scotty runs for this workload: its replay is the model the
	// cross-checks compare against, and what remains of scotty's wall time
	// beyond it and the watermarker is read, parse, handoff, format and write.
	var pathRows int
	var pathTime time.Duration
	var eps, stall float64
	var err error
	switch {
	case w.keyed:
		pathRows, pathTime = kr.results, total["core.keyed"]
		eps, stall, err = engineReplay(keyedLayer(w, nil), titems)
	case len(w.queries) > 1:
		pathRows, pathTime = fr.results, total["fleet"]
		eps, stall, err = engineReplay(fleetLayer(w, nil), fitems)
	default:
		pathRows, pathTime = cr.results, total["core"]
		eps, stall, err = engineReplay(coreLayer(w, nil), fitems)
	}
	if err != nil {
		return nil, 0, err
	}
	b.put("engine.eps", "1/s", eps)
	b.put("engine.queue_stall_ms", "ms", stall)
	b.put("scotty.self_ms", "ms", (scottyWall-total["stream"]-pathTime).Seconds()*1e3)
	b.prov["replay_rows"] = pathRows
	return tr, pathRows, nil
}

// writeSpans dumps the traced replay's spans, one JSON object per line.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
