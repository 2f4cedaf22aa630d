package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/topology"
	"repro/internal/wire"
)

// mapIndex is the map-based push and pull index that the per-pattern
// rows replaced, kept as their oracle: its own event buffer, the two
// maps, and the engine logic that maintained and served them.
type mapIndex struct {
	buf    *cache.Cache
	patIdx map[ident.PatternID]map[ident.EventID]bool
	tagIdx map[wire.LostEntry]ident.EventID
}

func newMapIndex(capacity int, policy cache.Policy, rng *rand.Rand) *mapIndex {
	m := &mapIndex{
		buf:    cache.New(capacity, policy, rng),
		patIdx: make(map[ident.PatternID]map[ident.EventID]bool),
		tagIdx: make(map[wire.LostEntry]ident.EventID),
	}
	m.buf.SetOnEvict(m.unindex)
	return m
}

func (m *mapIndex) index(ev *wire.Event) {
	if m.buf.Has(ev.ID) {
		return
	}
	m.buf.Put(ev)
	for _, p := range ev.Content {
		set, ok := m.patIdx[p]
		if !ok {
			set = make(map[ident.EventID]bool)
			m.patIdx[p] = set
		}
		set[ev.ID] = true
	}
	for _, t := range ev.Tags {
		m.tagIdx[wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq}] = ev.ID
	}
}

func (m *mapIndex) unindex(ev *wire.Event) {
	for _, p := range ev.Content {
		delete(m.patIdx[p], ev.ID)
	}
	for _, t := range ev.Tags {
		delete(m.tagIdx, wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq})
	}
}

func (m *mapIndex) digest(p ident.PatternID) []ident.EventID {
	set := m.patIdx[p]
	if len(set) == 0 {
		return nil
	}
	out := make([]ident.EventID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.SortFunc(out, func(a, b ident.EventID) int { return cmp.Compare(idKey(a), idKey(b)) })
	return out
}

func (m *mapIndex) serve(wanted []wire.LostEntry) (events []*wire.Event, remaining []wire.LostEntry) {
	for _, w := range wanted {
		id, ok := m.tagIdx[w]
		if !ok {
			remaining = append(remaining, w)
			continue
		}
		ev := m.buf.Get(id)
		if ev == nil {
			delete(m.tagIdx, w) // stale index entry
			remaining = append(remaining, w)
			continue
		}
		if !containsEvent(events, id) {
			events = append(events, ev)
		}
	}
	return events, remaining
}

// indexPatterns straddle the 128-pattern tier of ident.PatternSet and the
// row-growth steps, so rows are grown, reused and left empty.
var indexPatterns = []ident.PatternID{0, 1, 5, 63, 126, 127, 128, 129, 200, 255, 256, 300}

// srcPattern keys a per-(source, pattern) sequence counter.
type srcPattern struct {
	src ident.NodeID
	pat ident.PatternID
}

// eventStream publishes events the way dispatchers stamp them: per-source
// event sequence numbers and per-(source, pattern) tag numbers, tags for
// a subset of the content patterns.
type eventStream struct {
	rng     *rand.Rand
	nextSeq map[ident.NodeID]uint32
	patSeq  map[srcPattern]uint32
	history []*wire.Event
}

func newEventStream(seed int64) *eventStream {
	return &eventStream{
		rng:     rand.New(rand.NewSource(seed)),
		nextSeq: make(map[ident.NodeID]uint32),
		patSeq:  make(map[srcPattern]uint32),
	}
}

func (s *eventStream) next() *wire.Event {
	src := ident.NodeID(2 + s.rng.Intn(6))
	s.nextSeq[src]++
	ev := &wire.Event{ID: ident.EventID{Source: src, Seq: s.nextSeq[src]}}
	for n := 1 + s.rng.Intn(3); len(ev.Content) < n; {
		p := indexPatterns[s.rng.Intn(len(indexPatterns))]
		if slices.Contains(ev.Content, p) {
			continue
		}
		ev.Content = append(ev.Content, p)
		if s.rng.Intn(5) > 0 {
			k := srcPattern{src: src, pat: p}
			s.patSeq[k]++
			ev.Tags = append(ev.Tags, ident.PatternSeq{Pattern: p, Seq: s.patSeq[k]})
		}
	}
	s.history = append(s.history, ev)
	return ev
}

// wanted builds a negative digest: tags of past events (buffered,
// evicted or never indexed) mixed with sequence numbers nobody stamped,
// as a ForPattern, ForSource or All digest in canonical order, or
// shuffled, with occasional repeats.
func (s *eventStream) wanted() []wire.LostEntry {
	var out []wire.LostEntry
	for n := s.rng.Intn(40); len(out) < n; {
		var w wire.LostEntry
		if len(s.history) > 0 && s.rng.Intn(3) > 0 {
			// Mostly recent events: some still buffered, some evicted.
			ev := s.history[len(s.history)-1-s.rng.Intn(min(len(s.history), 100))]
			if len(ev.Tags) == 0 {
				continue
			}
			t := ev.Tags[s.rng.Intn(len(ev.Tags))]
			w = wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq}
		} else {
			w = wire.LostEntry{
				Source:  ident.NodeID(1 + s.rng.Intn(8)),
				Pattern: indexPatterns[s.rng.Intn(len(indexPatterns))],
				Seq:     uint32(1 + s.rng.Intn(400)),
			}
		}
		out = append(out, w)
		if s.rng.Intn(10) == 0 {
			out = append(out, w)
		}
	}
	switch s.rng.Intn(5) {
	case 0: // ForPattern: one pattern
		for i := range out {
			out[i].Pattern = out[0].Pattern
		}
		slices.SortFunc(out, compareLost)
	case 1: // ForSource: one source
		for i := range out {
			out[i].Source = out[0].Source
		}
		slices.SortFunc(out, compareLost)
	case 2: // All
		slices.SortFunc(out, compareLost)
	case 3: // reversed
		slices.SortFunc(out, compareLost)
		slices.Reverse(out)
	default: // random order
		s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// indexRig builds one engine with both indices (Hybrid) whose buffer
// draws random evictions from the given seed, as the oracle's does.
func indexRig(t *testing.T, capacity int, policy cache.Policy, seed int64) (*rig, *Engine) {
	t.Helper()
	cfg := DefaultConfig(Hybrid)
	cfg.BufferSize = capacity
	r := newRig(t, topology.NewLine(2), [][]ident.PatternID{{0}, {1}}, cfg)
	e := r.engines[0]
	e.buf = cache.New(capacity, policy, rand.New(rand.NewSource(seed)))
	e.buf.SetOnEvict(e.unindex)
	return r, e
}

// TestIndexRowsMatchMapOracle drives the per-pattern rows and the maps
// they replaced with the same random streams of index, re-index,
// eviction (under every replacement policy), serve and push-digest
// operations, and compares digests, served events and remaining entries
// entry for entry. The buffers stay in lockstep only if both sides touch
// them identically, so LRU refresh order and stale-entry handling are
// compared too. Every digest handed out must still read as it did when
// it was handed out at the end.
func TestIndexRowsMatchMapOracle(t *testing.T) {
	for _, policy := range []cache.Policy{cache.FIFOPolicy, cache.RandomPolicy, cache.LRUPolicy} {
		for seed := int64(1); seed <= 3; seed++ {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("%v/seed%d", policy, seed), func(t *testing.T) {
				const capacity = 40
				r, e := indexRig(t, capacity, policy, seed)
				oracle := newMapIndex(capacity, policy, rand.New(rand.NewSource(seed)))
				s := newEventStream(seed)
				type handed struct{ got, want []ident.EventID }
				var digests []handed
				for op := 0; op < 4000; op++ {
					switch k := s.rng.Intn(20); {
					case k < 10:
						ev := s.next()
						e.index(ev)
						oracle.index(ev)
					case k < 12:
						if len(s.history) > 0 {
							ev := s.history[s.rng.Intn(len(s.history))]
							e.index(ev)
							oracle.index(ev)
						}
					case k < 16:
						wanted := s.wanted()
						if s.rng.Intn(4) == 0 {
							// Plant a stale entry, pointing at an event that
							// is not buffered, on both sides; serving it
							// must delete it.
							src := ident.NodeID(2 + s.rng.Intn(6))
							p := indexPatterns[s.rng.Intn(len(indexPatterns))]
							stale := wire.LostEntry{Source: src, Pattern: p, Seq: uint32(100000 + op)}
							e.tagRows.add(p).put(src, stale.Seq, stale.Seq)
							oracle.tagIdx[stale] = ident.EventID{Source: src, Seq: stale.Seq}
							wanted = slices.Insert(wanted, s.rng.Intn(len(wanted)+1), stale)
						}
						before := e.stats.RetransmitsServed
						remaining := e.serve(1, wanted)
						events := e.evScratch
						wantEvents, wantRemaining := oracle.serve(wanted)
						if !slices.Equal(events, wantEvents) {
							t.Fatalf("op %d: served %v, oracle served %v (wanted %v)", op, eventIDs(events), eventIDs(wantEvents), wanted)
						}
						if !slices.Equal(remaining, wantRemaining) {
							t.Fatalf("op %d: remaining %v, oracle %v", op, remaining, wantRemaining)
						}
						if got := e.stats.RetransmitsServed - before; got != uint64(len(wantEvents)) {
							t.Fatalf("op %d: RetransmitsServed grew by %d, want %d", op, got, len(wantEvents))
						}
					default:
						p := indexPatterns[s.rng.Intn(len(indexPatterns))]
						got, want := e.pushDigest(p), oracle.digest(p)
						if !slices.Equal(got, want) {
							t.Fatalf("op %d: digest(%v) = %v, oracle %v", op, p, got, want)
						}
						digests = append(digests, handed{got, slices.Clone(want)})
					}
					if e.buf.Len() != oracle.buf.Len() {
						t.Fatalf("op %d: buffer holds %d events, oracle %d", op, e.buf.Len(), oracle.buf.Len())
					}
					if op%500 == 0 {
						if err := e.AuditInvariants(r.k.Now()); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					}
				}
				for _, ev := range s.history {
					if e.buf.Has(ev.ID) != oracle.buf.Has(ev.ID) {
						t.Fatalf("buffers diverged on %v", ev.ID)
					}
				}
				for _, p := range indexPatterns {
					if got, want := e.pushDigest(p), oracle.digest(p); !slices.Equal(got, want) {
						t.Fatalf("final digest(%v) = %v, oracle %v", p, got, want)
					}
				}
				for i, d := range digests {
					if !slices.Equal(d.got, d.want) {
						t.Fatalf("digest %d changed after it was handed out: %v, was %v", i, d.got, d.want)
					}
				}
			})
		}
	}
}

func eventIDs(evs []*wire.Event) []ident.EventID {
	ids := make([]ident.EventID, len(evs))
	for i, ev := range evs {
		ids[i] = ev.ID
	}
	return ids
}

// TestPushDigestUnchangedByLaterMutations: a digest already embedded in
// a gossip message must read the same after the engine indexes events
// before, inside and after it and evicts events from it.
func TestPushDigestUnchangedByLaterMutations(t *testing.T) {
	_, e := indexRig(t, 4, cache.FIFOPolicy, 1)
	ev := func(src, seq int) *wire.Event {
		return &wire.Event{ID: ident.EventID{Source: ident32(src), Seq: uint32(seq)}, Content: content(5)}
	}
	e.index(ev(3, 1))
	e.index(ev(5, 1))
	d := e.pushDigest(pat32(5))
	want := slices.Clone(d)
	e.index(ev(4, 1)) // inside
	e.index(ev(9, 1)) // after; the buffer is now full
	e.index(ev(1, 1)) // before, evicting (3, 1)
	e.index(ev(6, 1)) // evicting (5, 1)
	if !slices.Equal(d, want) {
		t.Fatalf("handed-out digest changed to %v, was %v", d, want)
	}
	if got := e.pushDigest(pat32(5)); !slices.Equal(got, []ident.EventID{{Source: 1, Seq: 1}, {Source: 4, Seq: 1}, {Source: 6, Seq: 1}, {Source: 9, Seq: 1}}) {
		t.Fatalf("current digest = %v", got)
	}
}
