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

// sortedIndex is the push and pull index as it was before the rows
// became a log and a hash table, kept as a second implementation under
// the map oracle: its own event buffer, rows sorted by key and searched
// by binary search, the push row handed out copy-on-write, and serve's
// forward cursor.
type sortedIndex struct {
	buf     *cache.Cache
	patRows patternRows[sortedPatRow]
	tagRows patternRows[sortedTagRow]
}

func newSortedIndex(capacity int, policy cache.Policy, rng *rand.Rand) *sortedIndex {
	x := &sortedIndex{buf: cache.New(capacity, policy, rng)}
	x.buf.SetOnEvict(x.unindex)
	return x
}

func (x *sortedIndex) index(ev *wire.Event) {
	if x.buf.Has(ev.ID) {
		return
	}
	x.buf.Put(ev)
	for _, p := range ev.Content {
		x.patRows.add(p).add(ev.ID)
	}
	for _, t := range ev.Tags {
		x.tagRows.add(t.Pattern).put(ev.ID.Source, t.Seq, ev.ID.Seq)
	}
}

func (x *sortedIndex) unindex(ev *wire.Event) {
	for _, p := range ev.Content {
		if r := x.patRows.row(p); r != nil {
			r.remove(ev.ID)
		}
	}
	for _, t := range ev.Tags {
		if r := x.tagRows.row(t.Pattern); r != nil {
			r.del(ev.ID.Source, t.Seq)
		}
	}
}

func (x *sortedIndex) digest(p ident.PatternID) []ident.EventID {
	r := x.patRows.row(p)
	if r == nil {
		return nil
	}
	return r.digest()
}

// serve probes the wanted entries in the order given. Within a run of
// equal pattern in canonical digest order the keys ascend, so the probe
// position in the pattern's row only moves forward; it restarts at a
// new pattern or wherever the order breaks.
func (x *sortedIndex) serve(wanted []wire.LostEntry) (events []*wire.Event, remaining []wire.LostEntry) {
	var (
		row  *sortedTagRow
		pat  = ident.NoPattern
		pos  int
		last uint64
	)
	for _, w := range wanted {
		key := tagKey(w.Source, w.Seq)
		if w.Pattern != pat || key < last {
			pat, pos, row = w.Pattern, 0, x.tagRows.row(w.Pattern)
		}
		last = key
		if row == nil {
			remaining = append(remaining, w)
			continue
		}
		pos = row.seek(pos, key)
		if pos == len(*row) || (*row)[pos].key() != key {
			remaining = append(remaining, w)
			continue
		}
		id := ident.EventID{Source: w.Source, Seq: (*row)[pos].eseq}
		ev := x.buf.Get(id)
		if ev == nil {
			row.deleteAt(pos) // stale index entry
			remaining = append(remaining, w)
			continue
		}
		if !containsEvent(events, id) {
			events = append(events, ev)
		}
	}
	return events, remaining
}

// sortedPatRow is one pattern's push row in EventID.Less order, handed
// out as the digest itself: digest marks it shared, and the next
// mutation copies it first.
type sortedPatRow struct {
	ids    []ident.EventID
	shared bool
}

// search returns the first position whose id's key is ≥ key.
func (r *sortedPatRow) search(key uint64) int {
	lo, hi := 0, len(r.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idKey(r.ids[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (r *sortedPatRow) add(id ident.EventID) {
	key := idKey(id)
	n := len(r.ids)
	if n == 0 || idKey(r.ids[n-1]) < key {
		r.own()
		r.ids = append(r.ids, id)
		return
	}
	i := r.search(key)
	if r.ids[i] == id {
		return
	}
	r.own()
	r.ids = slices.Insert(r.ids, i, id)
}

func (r *sortedPatRow) remove(id ident.EventID) {
	i := r.search(idKey(id))
	if i == len(r.ids) || r.ids[i] != id {
		return
	}
	r.own()
	r.ids = slices.Delete(r.ids, i, i+1)
}

func (r *sortedPatRow) digest() []ident.EventID {
	if len(r.ids) == 0 {
		return nil
	}
	r.shared = true
	return r.ids[:len(r.ids):len(r.ids)]
}

func (r *sortedPatRow) own() {
	if r.shared {
		r.ids = append(make([]ident.EventID, 0, len(r.ids)+len(r.ids)/4+4), r.ids...)
		r.shared = false
	}
}

func (t tagEnt) key() uint64 { return tagKey(t.src, t.pseq) }

// sortedTagRow is one pattern's pull row sorted by key, mutated in
// place.
type sortedTagRow []tagEnt

func (r *sortedTagRow) put(src ident.NodeID, pseq, eseq uint32) {
	key := tagKey(src, pseq)
	row := *r
	n := len(row)
	if n == 0 || row[n-1].key() < key {
		*r = append(row, tagEnt{src, pseq, eseq})
		return
	}
	i := row.seek(0, key)
	if row[i].key() == key {
		row[i].eseq = eseq
		return
	}
	*r = slices.Insert(row, i, tagEnt{src, pseq, eseq})
}

func (r *sortedTagRow) del(src ident.NodeID, pseq uint32) {
	key := tagKey(src, pseq)
	if i := r.seek(0, key); i < len(*r) && (*r)[i].key() == key {
		r.deleteAt(i)
	}
}

func (r *sortedTagRow) deleteAt(i int) { *r = slices.Delete(*r, i, i+1) }

// seek returns the first position at or after from whose key is ≥ key
// (len(r) if none), checking the two ends before binary-searching.
func (r sortedTagRow) seek(from int, key uint64) int {
	n := len(r)
	if from >= n || r[n-1].key() < key {
		return n
	}
	if r[from].key() >= key {
		return from
	}
	lo, hi := from, n-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].key() < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
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

// indexUnderTest is one implementation of the push and pull index as
// TestIndexRowsMatchMapOracle drives it.
type indexUnderTest interface {
	index(ev *wire.Event)
	serve(wanted []wire.LostEntry) (events []*wire.Event, remaining []wire.LostEntry)
	digest(p ident.PatternID) []ident.EventID
	// plant maps a pull entry to an event that is not buffered.
	plant(stale wire.LostEntry)
	buffer() *cache.Cache
}

// engineIndex drives an engine's rows.
type engineIndex struct {
	t *testing.T
	e *Engine
}

func (x engineIndex) index(ev *wire.Event) { x.e.index(ev) }
func (x engineIndex) serve(wanted []wire.LostEntry) ([]*wire.Event, []wire.LostEntry) {
	before := x.e.stats.RetransmitsServed
	remaining := x.e.serve(1, wanted)
	events := x.e.evScratch
	if got := x.e.stats.RetransmitsServed - before; got != uint64(len(events)) {
		x.t.Fatalf("RetransmitsServed grew by %d for %d events", got, len(events))
	}
	return slices.Clone(events), slices.Clone(remaining)
}
func (x engineIndex) digest(p ident.PatternID) []ident.EventID { return x.e.pushDigest(p) }
func (x engineIndex) plant(w wire.LostEntry)                   { x.e.tagRows.add(w.Pattern).put(w.Source, w.Seq, w.Seq) }
func (x engineIndex) buffer() *cache.Cache                     { return x.e.buf }

func (x *sortedIndex) plant(w wire.LostEntry) { x.tagRows.add(w.Pattern).put(w.Source, w.Seq, w.Seq) }
func (x *sortedIndex) buffer() *cache.Cache   { return x.buf }

// TestIndexRowsMatchMapOracle drives the engine's rows, the sorted rows
// they replaced and the maps those replaced with the same random
// streams of index, re-index, eviction (under every replacement
// policy), serve and push-digest operations, and compares digests,
// served events and remaining entries entry for entry. The buffers stay
// in lockstep only if every side touches them identically, so LRU
// refresh order and stale-entry handling are compared too. Every digest
// handed out must still read as it did when it was handed out at the
// end, and auditing the engine must leave its rows as they were.
func TestIndexRowsMatchMapOracle(t *testing.T) {
	for _, policy := range []cache.Policy{cache.FIFOPolicy, cache.RandomPolicy, cache.LRUPolicy} {
		for seed := int64(1); seed <= 3; seed++ {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("%v/seed%d", policy, seed), func(t *testing.T) {
				const capacity = 40
				r, e := indexRig(t, capacity, policy, seed)
				sides := []struct {
					name string
					x    indexUnderTest
				}{
					{"engine", engineIndex{t, e}},
					{"sorted", newSortedIndex(capacity, policy, rand.New(rand.NewSource(seed)))},
				}
				oracle := newMapIndex(capacity, policy, rand.New(rand.NewSource(seed)))
				s := newEventStream(seed)
				type handed struct {
					side      string
					got, want []ident.EventID
				}
				var digests []handed
				for op := 0; op < 4000; op++ {
					switch k := s.rng.Intn(20); {
					case k < 10:
						ev := s.next()
						for _, side := range sides {
							side.x.index(ev)
						}
						oracle.index(ev)
					case k < 12:
						if len(s.history) > 0 {
							ev := s.history[s.rng.Intn(len(s.history))]
							for _, side := range sides {
								side.x.index(ev)
							}
							oracle.index(ev)
						}
					case k < 16:
						wanted := s.wanted()
						if s.rng.Intn(4) == 0 {
							// Plant a stale entry, pointing at an event that
							// is not buffered, on every side; serving it
							// must delete it.
							src := ident.NodeID(2 + s.rng.Intn(6))
							p := indexPatterns[s.rng.Intn(len(indexPatterns))]
							stale := wire.LostEntry{Source: src, Pattern: p, Seq: uint32(100000 + op)}
							for _, side := range sides {
								side.x.plant(stale)
							}
							oracle.tagIdx[stale] = ident.EventID{Source: src, Seq: stale.Seq}
							wanted = slices.Insert(wanted, s.rng.Intn(len(wanted)+1), stale)
						}
						wantEvents, wantRemaining := oracle.serve(wanted)
						for _, side := range sides {
							events, remaining := side.x.serve(wanted)
							if !slices.Equal(events, wantEvents) {
								t.Fatalf("op %d: %s served %v, oracle served %v (wanted %v)", op, side.name, eventIDs(events), eventIDs(wantEvents), wanted)
							}
							if !slices.Equal(remaining, wantRemaining) {
								t.Fatalf("op %d: %s left %v, oracle %v", op, side.name, remaining, wantRemaining)
							}
						}
					default:
						p := indexPatterns[s.rng.Intn(len(indexPatterns))]
						want := oracle.digest(p)
						for _, side := range sides {
							got := side.x.digest(p)
							if !slices.Equal(got, want) {
								t.Fatalf("op %d: %s digest(%v) = %v, oracle %v", op, side.name, p, got, want)
							}
							digests = append(digests, handed{side.name, got, slices.Clone(want)})
						}
					}
					for _, side := range sides {
						if got, want := side.x.buffer().Len(), oracle.buf.Len(); got != want {
							t.Fatalf("op %d: %s buffer holds %d events, oracle %d", op, side.name, got, want)
						}
					}
					if op%500 == 0 {
						before := engineRows(e)
						if err := e.AuditInvariants(r.k.Now()); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
						if after := engineRows(e); after != before {
							t.Fatalf("op %d: audit changed the rows:\n%s\nwas\n%s", op, after, before)
						}
					}
				}
				for _, ev := range s.history {
					for _, side := range sides {
						if side.x.buffer().Has(ev.ID) != oracle.buf.Has(ev.ID) {
							t.Fatalf("%s buffer diverged on %v", side.name, ev.ID)
						}
					}
				}
				for _, p := range indexPatterns {
					want := oracle.digest(p)
					for _, side := range sides {
						if got := side.x.digest(p); !slices.Equal(got, want) {
							t.Fatalf("final %s digest(%v) = %v, oracle %v", side.name, p, got, want)
						}
					}
				}
				for i, d := range digests {
					if !slices.Equal(d.got, d.want) {
						t.Fatalf("%s digest %d changed after it was handed out: %v, was %v", d.side, i, d.got, d.want)
					}
				}
			})
		}
	}
}

// engineRows renders every slot of e's index rows, their lengths and
// capacities, and each push row's stale count and digest.
func engineRows(e *Engine) string {
	return fmt.Sprintf("%v %+v %v %+v %+v", e.patRows.pats, e.patRows.rows, e.tagRows.pats, e.tagRows.rows, tagSlots(e.tagRows.rows))
}

func tagSlots(rows []tagRow) [][]tagEnt {
	out := make([][]tagEnt, len(rows))
	for i, r := range rows {
		out[i] = r[:cap(r)]
	}
	return out
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

// tagKeyHomedAt returns the i-th (src, pseq) pair, counting up from
// pseq 1 of source src, whose home slot in a table of n slots is h.
func tagKeyHomedAt(src ident.NodeID, h, n, i int) uint32 {
	for pseq := uint32(1); ; pseq++ {
		if home(src, pseq, n) == h {
			if i == 0 {
				return pseq
			}
			i--
		}
	}
}

// checkTagRow compares r with want entry for entry and checks the
// table's shape: as many occupied slots as r counts, load at most ¾,
// every entry reachable.
func checkTagRow(t *testing.T, r tagRow, want map[tagEnt]uint32) {
	t.Helper()
	n := 0
	for _, e := range r[:cap(r)] {
		if e.pseq != 0 {
			n++
		}
	}
	if n != len(r) || n != len(want) || 4*n > 3*cap(r) {
		t.Fatalf("row holds %d entries in %d slots, counts %d, want %d", n, cap(r), len(r), len(want))
	}
	for k, eseq := range want {
		if got, ok := r.get(k.src, k.pseq); !ok || got != eseq {
			t.Fatalf("get(%v, %d) = %d, %v; want %d", k.src, k.pseq, got, ok, eseq)
		}
	}
}

// TestIndexRowsPullDeleteWrapsAtNonPowerOfTwoSize fills a six-slot
// table with a probe run that wraps from the last slot to the first and
// deletes from its head: each deletion must shift the entries that
// probed past the hole back across the wrap, and leave no tombstone.
func TestIndexRowsPullDeleteWrapsAtNonPowerOfTwoSize(t *testing.T) {
	const n, src = 6, ident.NodeID(3)
	r := make(tagRow, 0, n)
	last := n - 1
	// Three entries homed at the last slot fill slots 5, 0 and 1; one
	// homed at slot 0 probes on to slot 2.
	keys := []uint32{
		tagKeyHomedAt(src, last, n, 0),
		tagKeyHomedAt(src, last, n, 1),
		tagKeyHomedAt(src, last, n, 2),
		tagKeyHomedAt(src, 0, n, 0),
	}
	want := map[tagEnt]uint32{}
	for i, k := range keys {
		r.put(src, k, uint32(100+i))
		want[tagEnt{src: src, pseq: k}] = uint32(100 + i)
	}
	if cap(r) != n {
		t.Fatalf("table grew to %d slots; the test needs %d", cap(r), n)
	}
	slots := func() []uint32 {
		var out []uint32
		for _, e := range r[:cap(r)] {
			out = append(out, e.pseq)
		}
		return out
	}
	if got := slots(); !slices.Equal(got, []uint32{keys[1], keys[2], keys[3], 0, 0, keys[0]}) {
		t.Fatalf("slots %v before deletion", got)
	}
	checkTagRow(t, r, want)
	r.del(src, keys[0])
	delete(want, tagEnt{src: src, pseq: keys[0]})
	if got := slots(); !slices.Equal(got, []uint32{keys[2], keys[3], 0, 0, 0, keys[1]}) {
		t.Fatalf("slots %v after deleting the wrapped run's head", got)
	}
	checkTagRow(t, r, want)
	r.del(src, keys[2])
	delete(want, tagEnt{src: src, pseq: keys[2]})
	if got := slots(); !slices.Equal(got, []uint32{keys[3], 0, 0, 0, 0, keys[1]}) {
		t.Fatalf("slots %v after deleting across the wrap", got)
	}
	checkTagRow(t, r, want)
	r.del(src, 999999) // absent: a no-op
	checkTagRow(t, r, want)
}

// TestIndexRowsPullGrowsFromTwoSlots fills a row from empty: the first
// put allocates two slots, and each growth rehashes every entry into a
// table at least half as large again before the load passes ¾.
func TestIndexRowsPullGrowsFromTwoSlots(t *testing.T) {
	var r tagRow
	want := map[tagEnt]uint32{}
	prev := 0
	for i := 1; i <= 300; i++ {
		src := ident.NodeID(i % 7)
		r.put(src, uint32(i), uint32(1000+i))
		want[tagEnt{src: src, pseq: uint32(i)}] = uint32(1000 + i)
		if i == 1 && cap(r) != 2 {
			t.Fatalf("first put allocated %d slots, want 2", cap(r))
		}
		if c := cap(r); c != prev {
			if prev > 0 && 2*c < 3*prev {
				t.Fatalf("table grew from %d to %d slots, want at least ×1.5", prev, c)
			}
			if prev > 0 && 4*i <= 3*prev {
				t.Fatalf("table grew from %d slots at %d entries, below ¾ load", prev, i)
			}
			prev = c
		}
		checkTagRow(t, r, want)
	}
}

// TestIndexRowsPullMatchesMap runs 10,000 random puts, deletes and gets
// over a small key space — so runs collide, wrap and shrink — against a
// map, including sequence 0, which is never indexed.
func TestIndexRowsPullMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r tagRow
	want := map[tagEnt]uint32{}
	for op := 0; op < 10000; op++ {
		src := ident.NodeID(rng.Intn(5) - 1)
		pseq := uint32(rng.Intn(60))
		k := tagEnt{src: src, pseq: pseq}
		switch rng.Intn(3) {
		case 0:
			eseq := uint32(rng.Intn(1000))
			r.put(src, pseq, eseq)
			if pseq != 0 {
				want[k] = eseq
			}
		case 1:
			r.del(src, pseq)
			delete(want, k)
		default:
			got, ok := r.get(src, pseq)
			if w, wok := want[k]; ok != wok || got != w {
				t.Fatalf("op %d: get(%v, %d) = %d, %v; want %d, %v", op, src, pseq, got, ok, w, wok)
			}
		}
		if op%97 == 0 {
			checkTagRow(t, r, want)
		}
	}
	checkTagRow(t, r, want)
}
