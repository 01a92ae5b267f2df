package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
)

// windowKey identifies one result row: the fleet query id or the key (0 for
// a single unkeyed query) and the window bounds.
type windowKey struct {
	id   int64
	s, e int64
}

type windowVal struct {
	n int64
	v float64
}

// expected holds the oracle's final value of every window, in absolute time.
type expected struct {
	finals map[windowKey]windowVal
	// nonEmpty counts the windows that hold at least one event: the rows a
	// correct run must print.
	nonEmpty int
	// off is scotty's rebase offset; first the first parsed event's time.
	off, first int64
}

// oracle evaluates reference.Finals for every query (and key) of the
// workload. An oracle over epoch-scale timestamps walks every window since
// time zero, so it runs on timestamps shifted down by a multiple of every
// slide that leaves the longest window before the first event; window bounds
// are shifted back.
func oracle(w workload, in *input) *expected {
	minTS := in.events[0].Time
	for _, e := range in.events {
		minTS = min(minTS, e.Time)
	}
	shift := int64(0)
	if step := w.step(); step > 0 {
		if lo := minTS - w.maxLength(); lo > 0 {
			shift = lo - lo%step
		}
	}
	groups := map[int64][]stream.Event[float64]{}
	for i, e := range in.events {
		key := int64(0)
		if w.keyed {
			key = int64(e.Value.Key)
		}
		groups[key] = append(groups[key], stream.Event[float64]{Time: e.Time - shift, Seq: int64(i), Value: e.Value.V})
	}
	ex := &expected{finals: map[windowKey]windowVal{}, off: rebaseOffset(w.step(), in.events[0].Time), first: in.events[0].Time}
	add := func(id int64, fs []reference.Final[float64]) {
		for _, r := range fs {
			ex.finals[windowKey{id, r.Start + shift, r.End + shift}] = windowVal{r.N, r.Value}
			if r.N > 0 {
				ex.nonEmpty++
			}
		}
	}
	for key, ev := range groups {
		for qi, q := range w.queries {
			id := key
			if !w.keyed {
				id = int64(qi)
			}
			if w.agg == "p90" {
				add(id, reference.Finals[float64, []float64, float64](sortedP90{}, q.oracle(), ev, stream.MaxTime))
			} else {
				add(id, reference.Finals(aggregate.Sum[float64](ident), q.oracle(), ev, stream.MaxTime))
			}
		}
	}
	return ex
}

// sortedP90 is the oracle's p90: it keeps a window's values in a plain slice
// and sorts them once per result. It shares no code with the run-length
// multisets scotty's p90 uses, and picks the same rank as
// rle.Multiset.Quantile: round(0.9 * (n-1)), the smallest value for an
// empty window's NaN aside.
type sortedP90 struct{}

func (sortedP90) Lift(e stream.Event[float64]) []float64 { return []float64{e.Value} }
func (sortedP90) Combine(a, b []float64) []float64 {
	return append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
}
func (sortedP90) Accumulate(a []float64, e stream.Event[float64]) []float64 {
	return append(a, e.Value)
}
func (sortedP90) Identity() []float64 { return nil }
func (sortedP90) Props() aggregate.Props {
	// Combine concatenates, so the partial depends on order; only Lower's
	// sort makes the result order-free. The oracle never relies on either.
	return aggregate.Props{Name: "p90", Kind: aggregate.Holistic}
}
func (sortedP90) Lower(a []float64) float64 {
	if len(a) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), a...)
	sort.Float64s(s)
	return s[int(math.Floor(0.9*float64(len(s)-1)+0.5))]
}

// verdict classifies every mismatch between scotty's output and the oracle.
type verdict struct {
	expected int // non-empty oracle windows
	rows     int // output rows, update rows included
	// leading counts missing leading partial windows: windows that hold
	// the first event but start before scotty's rebase offset. scotty's
	// rebaser drops them (a known defect); they are counted in failed_frac
	// like every other mismatch, and reported apart so that any other
	// mismatch fails the run.
	leading int
	missing int // other non-empty windows with no row
	wrong   int // rows whose count or value differs from the oracle
	extra   int // rows for windows the oracle does not know
}

func (v verdict) mismatches() int { return v.leading + v.missing + v.wrong + v.extra }

// unexplained counts the mismatches that are not the known rebaser defect.
func (v verdict) unexplained() int { return v.missing + v.wrong + v.extra }

// checkOutput compares scotty's output rows against the oracle. For a window
// printed several times (update rows) the last row wins. Every non-empty
// window must match exactly; a row for an empty window is accepted when the
// window belongs to the query's family.
func checkOutput(w workload, ex *expected, out []byte) (verdict, error) {
	v := verdict{expected: ex.nonEmpty}
	got := map[windowKey]windowVal{}
	for len(out) > 0 {
		i := bytes.IndexByte(out, '\n')
		if i < 0 {
			return v, fmt.Errorf("unterminated output row %q", out)
		}
		k, val, err := parseRow(w, string(out[:i]))
		if err != nil {
			return v, err
		}
		got[k] = val
		out = out[i+1:]
		v.rows++
	}
	for k, want := range ex.finals {
		g, ok := got[k]
		switch {
		case !ok && want.n > 0:
			if k.s < ex.off && k.e > ex.first {
				v.leading++
			} else {
				v.missing++
			}
		case ok && g.n != want.n:
			v.wrong++
		case ok && want.n > 0 && g.v != want.v && !(math.IsNaN(g.v) && math.IsNaN(want.v)):
			v.wrong++
		}
	}
	for k, g := range got {
		if _, ok := ex.finals[k]; ok {
			continue
		}
		q := w.queries[0]
		if !w.keyed {
			q = w.queries[k.id]
		}
		if g.n != 0 || !q.inFamily(k.s, k.e) {
			v.extra++
		}
	}
	return v, nil
}

// parseRow parses one scotty output row: "[start, end)\t n=N\t value", with
// a "q<id>\t" (fleet) or "k<key>\t" (keyed) prefix and an "  (update)"
// suffix where they apply.
func parseRow(w workload, row string) (windowKey, windowVal, error) {
	var k windowKey
	var val windowVal
	bad := func() (windowKey, windowVal, error) {
		return k, val, fmt.Errorf("malformed output row %q", row)
	}
	f := strings.Split(row, "\t")
	if len(w.queries) > 1 || w.keyed {
		if len(f) != 4 || len(f[0]) < 2 {
			return bad()
		}
		id, err := strconv.ParseInt(f[0][1:], 10, 64)
		if err != nil || (w.keyed && f[0][0] != 'k') || (!w.keyed && (f[0][0] != 'q' || id >= int64(len(w.queries)))) {
			return bad()
		}
		k.id = id
		f = f[1:]
	}
	if len(f) != 3 {
		return bad()
	}
	bounds, ok := strings.CutPrefix(f[0], "[")
	bounds, ok2 := strings.CutSuffix(bounds, ")")
	s, e, ok3 := strings.Cut(bounds, ", ")
	if !ok || !ok2 || !ok3 {
		return bad()
	}
	var err1, err2, err3, err4 error
	k.s, err1 = strconv.ParseInt(s, 10, 64)
	k.e, err2 = strconv.ParseInt(e, 10, 64)
	n, ok := strings.CutPrefix(f[1], " n=")
	if !ok {
		return bad()
	}
	val.n, err3 = strconv.ParseInt(n, 10, 64)
	value := strings.TrimSuffix(strings.TrimPrefix(f[2], " "), "  (update)")
	val.v, err4 = strconv.ParseFloat(value, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return bad()
	}
	return k, val, nil
}
