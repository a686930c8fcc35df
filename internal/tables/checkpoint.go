// Checkpointed full-table sweeps: RenderAllCheckpoint journals every
// completed table render into a crash-safe log (internal/wal), so a
// sweep killed mid-flight resumes from the last completed table
// instead of recomputing the whole suite. The resumed output is
// byte-identical to an uninterrupted RenderAll, because RenderAll's
// output is exactly the concatenation of per-table renders in IDs()
// order and the journal stores those very bytes.
//
// Journal layout (one wal store):
//
//   - "manifest"    → format version, target ISA, and the table-ID
//     list, NUL/comma separated. A mismatch (different ISA, different
//     toolkit revision) wipes the journal: stale bytes are never
//     replayed into fresh output.
//   - "table:<id>"  → the rendered bytes of one completed table.
//
// Tables are journaled only while the sweep is fully healthy: the
// moment any benchmark degrades, rendering continues (DEGRADED rows,
// exactly like RenderAll) but nothing further is checkpointed, so a
// resume re-evaluates every benchmark the degraded run could not
// vouch for. Journal I/O failures are likewise non-fatal — the sweep
// still renders, it just loses resumability.
package tables

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"delinq/internal/bench"
	"delinq/internal/wal"
)

// checkpointFormat versions the journal layout; bump it whenever the
// record encoding or rendering pipeline changes incompatibly.
const checkpointFormat = "delinq-checkpoint-v1"

// tableKeyPrefix namespaces per-table journal records.
const tableKeyPrefix = "table:"

// manifestValue identifies what this process would render: journal
// bytes are only reusable when all three components match.
func manifestValue() []byte {
	return []byte(checkpointFormat + "\x00" + isaOrDefault("") + "\x00" + strings.Join(IDs(), ","))
}

// RenderAllCheckpoint is RenderAll with a resume journal at path. Every
// table that renders while the sweep is healthy is checkpointed; on the
// next invocation those tables replay from the journal byte-for-byte
// and only the pending remainder is recomputed (with the simulation
// preload narrowed to the combinations the pending tables actually
// need). A journal from a different ISA or toolkit revision is wiped,
// and a corrupt journal degrades to recomputation — never to corrupt
// output. The full table sweep is written to w either way.
func RenderAllCheckpoint(ctx context.Context, w io.Writer, workers int, path string) (*Report, error) {
	st, entries, rst, err := wal.Open(path, wal.Options{Name: "checkpoint"})
	if err != nil {
		return nil, fmt.Errorf("tables: checkpoint %s: %w", path, err)
	}
	defer st.Close()

	done := loadCheckpoint(st, entries, rst)

	ResetDegradations()
	pending := map[string]bool{}
	for _, id := range IDs() {
		if _, ok := done[id]; !ok {
			pending[id] = true
		}
	}
	if len(pending) > 0 {
		if err := Preload(ctx, workers, combosFor(pending)); err != nil {
			return nil, err
		}
	}

	for _, id := range IDs() {
		if b, ok := done[id]; ok {
			if _, err := w.Write(b); err != nil {
				return nil, err
			}
			continue
		}
		t, err := ByID(id)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := t.Render(&buf); err != nil {
			return nil, err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return nil, err
		}
		// Only a fully healthy sweep checkpoints: a table holding
		// DEGRADED rows (or rendered after any benchmark degraded)
		// must be re-evaluated by the resume, not replayed.
		if len(Degradations()) == 0 {
			st.Append(tableKeyPrefix+id, buf.Bytes()) // best effort
		}
	}
	return &Report{Degraded: Degradations()}, nil
}

// loadCheckpoint validates the replayed journal and returns the
// completed tables keyed by ID. A missing or mismatched manifest wipes
// the store (stale bytes must never be replayed); a dirty replay
// (torn tail, quarantined records) keeps the surviving entries —
// every one is checksummed — and compacts the damage away.
func loadCheckpoint(st *wal.Store, entries []wal.Entry, rst wal.ReplayStats) map[string][]byte {
	valid := map[string]bool{}
	for _, id := range IDs() {
		valid[id] = true
	}
	done := map[string][]byte{}
	var manifest []byte
	stale := false
	for _, e := range entries {
		switch {
		case e.Key == "manifest":
			manifest = e.Val
		case strings.HasPrefix(e.Key, tableKeyPrefix):
			if id := e.Key[len(tableKeyPrefix):]; valid[id] {
				done[id] = e.Val
			} else {
				stale = true // a table this revision no longer renders
			}
		default:
			stale = true
		}
	}
	if !bytes.Equal(manifest, manifestValue()) {
		// Different ISA, different revision, or a brand-new journal:
		// start clean and stamp the manifest first so a crash between
		// here and the first table checkpoint still resumes safely.
		st.Compact(nil)
		st.Append("manifest", manifestValue())
		return map[string][]byte{}
	}
	if rst.Dirty() || stale {
		live := []wal.Entry{{Key: "manifest", Val: manifestValue()}}
		for _, id := range IDs() {
			if b, ok := done[id]; ok {
				live = append(live, wal.Entry{Key: tableKeyPrefix + id, Val: b})
			}
		}
		st.Compact(live)
	}
	return done
}

// combosFor narrows the simulation preload to what the pending tables
// actually consume, so a resume that only owes the tail of the sweep
// does not re-warm the whole suite. The groups mirror AllCombos; the
// training subset of the base group is always included when anything
// is pending, because trained heuristic weights (used by most tables)
// derive from those runs.
func combosFor(pending map[string]bool) []Combo {
	need := func(ids ...string) bool {
		for _, id := range ids {
			if pending[id] {
				return true
			}
		}
		return false
	}
	var out []Combo
	switch {
	case need("1", "2", "3", "4", "5", "6", "10", "11", "12", "14", "S1"):
		for _, b := range bench.All() {
			out = append(out, Combo{Bench: b, Geoms: StdGeoms})
		}
	case len(pending) > 0:
		for _, b := range bench.Training() {
			out = append(out, Combo{Bench: b, Geoms: StdGeoms})
		}
	}
	if need("7", "S2") {
		for _, b := range bench.Training() {
			out = append(out, Combo{Bench: b, Input2: true, Geoms: StdGeoms})
		}
	}
	if need("8", "9", "13") {
		for _, b := range bench.Training() {
			out = append(out, Combo{Bench: b, Optimize: true, Geoms: StdGeoms})
		}
	}
	if need("S3") {
		for _, b := range bench.Training() {
			out = append(out, Combo{Bench: b, Geoms: BlockGeoms})
		}
	}
	return out
}
