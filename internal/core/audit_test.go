package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestLostBufferAuditCleanUnderChurn exercises the buffer through
// adds, duplicates, removals, capacity evictions, and TTL expiry, and
// demands a clean audit after every operation — the audit must accept
// every state the real mutation path can produce, including the lazily
// deferred sweep states.
func TestLostBufferAuditCleanUnderChurn(t *testing.T) {
	b := NewLostBuffer(4, time.Second)
	audit := func(now sim.Time, step string) {
		t.Helper()
		if err := b.AuditInvariants(now); err != nil {
			t.Fatalf("audit failed after %s: %v", step, err)
		}
	}
	audit(0, "construction")
	for i := 1; i <= 6; i++ { // overflows capacity 4 → FIFO eviction
		b.Add(le(1, i%2, i), sim32(i*10))
		audit(sim32(i*10), "add")
	}
	b.Add(le(1, 1, 5), sim32(100)) // duplicate refresh: stale queue position
	audit(sim32(100), "duplicate add")
	b.Remove(le(1, 0, 6))
	audit(sim32(100), "remove")
	// Reads sweep lazily; the audit must hold before and after.
	audit(sim32(1200), "pre-sweep with expired entries")
	b.All(sim32(1200))
	audit(sim32(1200), "post-sweep")
	b.Add(le(2, 3, 1), sim32(1300))
	audit(sim32(1300), "add after sweep")
}

// TestLostBufferAuditDetectsCorruption hand-corrupts each structural
// invariant in turn and checks the audit names it.
func TestLostBufferAuditDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(b *LostBuffer)
		now     sim.Time
		want    string
	}{
		{
			name:    "capacity-overflow",
			corrupt: func(b *LostBuffer) { b.capacity = 1 },
			want:    "over capacity",
		},
		{
			name: "index-out-of-order",
			corrupt: func(b *LostBuffer) {
				b.Add(le(1, 1, 5), sim32(3))
				items := patRowOf(b, 1).items
				items[0], items[1] = items[1], items[0]
			},
			want: "out of order",
		},
		{
			name: "index-holds-unknown-entry",
			corrupt: func(b *LostBuffer) {
				// Source 9 has no outstanding entry, hence no count.
				patRowOf(b, 1).items[0].src = 9
			},
			want: "absent from the source index",
		},
		{
			name: "foreign-pattern-entry",
			corrupt: func(b *LostBuffer) {
				// Pattern 1's index now leads to a row claiming pattern 2.
				patRowOf(b, 1).pat = 2
			},
			want: "foreign pattern",
		},
		{
			name: "pattern-cardinality-mismatch",
			corrupt: func(b *LostBuffer) {
				b.Add(le(1, 1, 5), sim32(3))
				row := patRowOf(b, 1)
				row.items = row.items[:len(row.items)-1]
			},
			want: "pattern rows hold",
		},
		{
			name: "foreign-source-entry",
			corrupt: func(b *LostBuffer) {
				// Source 1's index now leads to a count claiming source 2.
				b.Add(le(2, 3, 3), sim32(3))
				r, _ := b.srcIdx.Row(1)
				b.bySrc[r].src = 2
			},
			want: "foreign source",
		},
		{
			name: "source-cardinality-mismatch",
			corrupt: func(b *LostBuffer) {
				r, _ := b.srcIdx.Row(1)
				b.bySrc[r].n--
			},
			want: "source node(1) counts",
		},
		{
			name:    "eviction-cursor-out-of-bounds",
			corrupt: func(b *LostBuffer) { b.head = -1 },
			want:    "eviction cursor",
		},
		{
			name:    "expiry-cursor-out-of-bounds",
			corrupt: func(b *LostBuffer) { b.exp = len(b.queue) + 1 },
			want:    "expiry cursor",
		},
		{
			name: "queue-time-backwards",
			corrupt: func(b *LostBuffer) {
				b.queue[0].at, b.queue[1].at = b.queue[1].at, b.queue[0].at
			},
			want: "went backwards",
		},
		{
			name: "entry-without-live-queue-position",
			corrupt: func(b *LostBuffer) {
				patRowOf(b, 1).items[0].at = sim32(999)
			},
			want: "no live queue position",
		},
		{
			name: "expired-entry-unreachable-by-sweep",
			corrupt: func(b *LostBuffer) {
				b.exp = len(b.queue) // sweep would skip everything
			},
			now:  sim32(5000), // well past the 1s TTL
			want: "unreachable by sweep",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewLostBuffer(10, time.Second)
			b.Add(le(1, 1, 1), sim32(1))
			b.Add(le(1, 2, 2), sim32(2))
			if err := b.AuditInvariants(tc.now); err != nil {
				t.Fatalf("audit failed before corruption: %v", err)
			}
			tc.corrupt(b)
			err := b.AuditInvariants(tc.now)
			if err == nil {
				t.Fatalf("audit accepted corrupted state")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// patRowOf returns pattern p's row of b.
func patRowOf(b *LostBuffer, p ident.PatternID) *lostRow {
	r, ok := b.patIdx.Row(int32(p))
	if !ok {
		panic("no row for the pattern")
	}
	return &b.byPat[r]
}

// TestEngineAuditDetectsIndexCorruption hand-corrupts the push and pull
// index rows in each way the audit must notice and checks it names it.
func TestEngineAuditDetectsIndexCorruption(t *testing.T) {
	buffered := ident.EventID{Source: 3, Seq: 1} // content {5} only
	for _, tc := range []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{
			name: "push-row-out-of-order",
			corrupt: func(e *Engine) {
				e.pushDigest(5) // compacts the log: sorted from here on
				log := e.patRows.row(5).log
				log[0], log[1] = log[1], log[0]
			},
			want: "push index row 5 out of order",
		},
		{
			name: "push-row-duplicate",
			corrupt: func(e *Engine) {
				e.pushDigest(200)
				r := e.patRows.row(200)
				r.log[1] = r.log[0]
			},
			want: "push index row 200 out of order",
		},
		{
			name: "push-row-repeated-entry",
			corrupt: func(e *Engine) {
				r := e.patRows.row(200)
				r.log = append(r.log, r.log[0])
			},
			want: "push index row 200 logs 1 entries that are not buffered or repeat one, but counts 0 stale",
		},
		{
			name: "push-row-unbuffered-event",
			corrupt: func(e *Engine) {
				r := e.patRows.row(5)
				r.log = append(r.log, idKey(ident.EventID{Source: 9, Seq: 9}))
			},
			want: "not buffered",
		},
		{
			name:    "push-row-missing-event",
			corrupt: func(e *Engine) { r := e.patRows.row(200); r.log = r.log[1:] },
			want:    "missing from push index row",
		},
		{
			name: "push-row-foreign-event",
			corrupt: func(e *Engine) {
				r := e.patRows.row(200)
				r.log = append(r.log, idKey(buffered))
			},
			want: "push index rows hold 10 entries, the buffered events imply 9",
		},
		{
			name:    "push-row-missed-compaction",
			corrupt: func(e *Engine) { e.patRows.row(5).stale = 2 },
			want:    "push index row 5 counts 2 stale entries in a log of 5, past its compaction point",
		},
		{
			name: "push-row-stale-digest",
			corrupt: func(e *Engine) {
				e.pushDigest(200)
				r := e.patRows.row(200)
				r.log = append(r.log, idKey(buffered))
			},
			want: "push index row 200 keeps digest",
		},
		{
			name: "pull-row-out-of-order",
			corrupt: func(e *Engine) {
				// Move an entry to the free slot before its home: a probe
				// from home meets a free slot first.
				r := *e.tagRows.row(5)
				t := r[:cap(r)]
				for i, te := range t {
					if te.pseq == 0 {
						continue
					}
					j := home(te.src, te.pseq, len(t))
					for t[j].pseq != 0 {
						j = (j + len(t) - 1) % len(t)
					}
					t[i], t[j] = tagEnt{}, te
					return
				}
			},
			want: "pull index row 5 holds",
		},
		{
			name: "pull-row-unbuffered-event",
			corrupt: func(e *Engine) {
				e.tagRows.row(200).put(9, 1, 9)
			},
			want: "not buffered",
		},
		{
			name: "pull-row-wrong-event",
			corrupt: func(e *Engine) {
				r := *e.tagRows.row(5)
				for i, te := range r[:cap(r)] {
					if te.src == 2 {
						r[:cap(r)][i].eseq = te.eseq%4 + 1
						return
					}
				}
			},
			want: "missing from pull index row",
		},
		{
			name:    "pull-row-missing-entry",
			corrupt: func(e *Engine) { e.tagRows.row(200).del(2, 1) },
			want:    "missing from pull index row",
		},
		{
			name: "pull-row-foreign-entry",
			corrupt: func(e *Engine) {
				e.tagRows.row(200).put(buffered.Source, 7, buffered.Seq)
			},
			want: "pull index rows hold 10 entries, the buffered events imply 9",
		},
		{
			name: "pull-row-miscounted",
			corrupt: func(e *Engine) {
				r := e.tagRows.row(200)
				*r = (*r)[:len(*r)-1]
			},
			want: "pull index row 200 holds 4 entries in",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, e := indexRig(t, 10, cache.FIFOPolicy, 1)
			for seq := 1; seq <= 4; seq++ {
				e.index(&wire.Event{
					ID:      ident.EventID{Source: 2, Seq: uint32(seq)},
					Content: content(5, 200),
					Tags:    []ident.PatternSeq{{Pattern: 5, Seq: uint32(seq)}, {Pattern: 200, Seq: uint32(seq)}},
				})
			}
			e.index(&wire.Event{ID: buffered, Content: content(5), Tags: []ident.PatternSeq{{Pattern: 5, Seq: 1}}})
			if err := e.AuditInvariants(r.k.Now()); err != nil {
				t.Fatalf("audit failed before corruption: %v", err)
			}
			tc.corrupt(e)
			err := e.AuditInvariants(r.k.Now())
			if err == nil {
				t.Fatal("audit accepted corrupted index rows")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEngineAuditInvariants drives a small recovering cluster, audits
// every engine after real traffic, then corrupts one engine's lost
// buffer and checks the failure is attributed to that node.
func TestEngineAuditInvariants(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	for i, e := range r.engines {
		if err := e.AuditInvariants(r.k.Now()); err != nil {
			t.Fatalf("engine %d failed audit after live traffic: %v", i, err)
		}
	}
	e := r.engines[2]
	e.lost.Add(wire.LostEntry{Source: 0, Pattern: 1, Seq: 99}, r.k.Now())
	e.lost.n++ // the counter no longer mirrors the rows
	err := e.AuditInvariants(r.k.Now())
	if err == nil {
		t.Fatal("audit accepted a corrupted engine")
	}
	if !strings.Contains(err.Error(), "node node(2)") {
		t.Fatalf("audit error %q does not name the corrupt node", err)
	}
}
