// Keyed mode: -keyed partitions the stream by key and windows every key's
// sub-stream independently through core.Keyed, on the same run loop as the
// unkeyed modes. With -mem-budget the per-key state is bounded: cold keys
// spill to -spill-dir and re-hydrate transparently (docs/MEMORY.md).
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"scotty/internal/core"
	"scotty/internal/spill"
	"scotty/internal/stream"
)

// keyedMode ingests stream.Tuple values. A CSV line may carry the key as an
// int32 third field ("ts,value,key", default key 0); more fields reject it.
var keyedMode = mode[stream.Tuple]{
	val:   stream.Val,
	keyOf: func(t stream.Tuple) int32 { return t.Key },
	demo:  func(t stream.Tuple) stream.Tuple { return t },
	parse: func(v float64, rest []string) (stream.Tuple, bool) {
		if len(rest) == 0 {
			return stream.Tuple{V: v}, true
		}
		key, err := strconv.ParseInt(strings.TrimSpace(rest[0]), 10, 32)
		return stream.Tuple{Key: int32(key), V: v}, err == nil && len(rest) == 1
	},
}

// runKeyed takes the operator as a factory: every key gets its own operator
// with fresh window definitions, since ContextFree definitions carry their
// trigger-cursor state — a shared definition would advance one cursor for
// all keys and silence every operator but the first to trigger.
func runKeyed[V, A, Out any](e *env, m mode[V], newOp func() (*core.Aggregator[V, A, Out], error)) int {
	k := core.NewKeyed(m.keyOf, 0, func() *core.Aggregator[V, A, Out] {
		ag, err := newOp()
		if err != nil {
			panic(fmt.Sprintf("scotty: validated query set failed: %v", err))
		}
		return ag
	})

	if e.budget > 0 {
		dir := e.spillDir
		scratch := dir == ""
		if scratch {
			dir = filepath.Join(os.TempDir(), fmt.Sprintf("scotty-spill-%d", os.Getpid()))
		}
		st, err := spill.Open(dir)
		if err != nil {
			fmt.Fprintf(e.stderr, "spill: %v\n", err)
			return 1
		}
		if err := k.EnableSpill(core.SpillConfig{Budget: e.budget, Store: st, Metrics: e.opts.Metrics}); err != nil {
			fmt.Fprintf(e.stderr, "spill: %v\n", err)
			return 2
		}
		defer func() {
			resident, cold, bytes := k.SpillStats()
			fmt.Fprintf(e.stderr, "spill: %d keys resident, %d cold, %d bytes on disk at exit\n", resident, cold, bytes)
			//lint:ignore errflow spill blobs are scratch; a failed sweep leaves garbage, not state
			_ = st.Clear()
			if scratch {
				//lint:ignore errflow best-effort removal of the per-process temp dir
				_ = os.Remove(dir)
			}
		}()
	}

	return runLoop(e, m, k, func(w io.Writer, rs []core.KeyedResult[int32, Out]) {
		for i := range rs {
			writeRow(w, e, rs[i].Key, &rs[i].Result)
		}
	})
}
