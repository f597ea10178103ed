package cache

import (
	"fmt"
	"slices"
	"testing"
)

// refModel is a reference LRU cache keyed by buffer ID: the behaviour the
// ref-based LLC must reproduce. Each partition is a slice ordered from
// LRU (index 0) to MRU.
type refModel struct {
	caps   []int64
	occ    []int64
	order  [][]BufID
	lines  map[BufID]*modelLine
	parts  []PartStats
	global PartStats
}

type modelLine struct {
	size, payload int64
	part          int
	// inc counts the lines this ID has had: a Ref issued for incarnation
	// k is resident only while the ID is resident as incarnation k.
	inc int
}

func newRefModel(caps []int64) *refModel {
	return &refModel{
		caps:  slices.Clone(caps),
		occ:   make([]int64, len(caps)),
		order: make([][]BufID, len(caps)),
		lines: map[BufID]*modelLine{},
		parts: make([]PartStats, len(caps)),
	}
}

func (m *refModel) toMRU(part int, id BufID) {
	o := m.order[part]
	i := slices.Index(o, id)
	m.order[part] = append(slices.Delete(o, i, i+1), id)
}

func (m *refModel) unlink(id BufID) *modelLine {
	l := m.lines[id]
	o := m.order[l.part]
	i := slices.Index(o, id)
	m.order[l.part] = slices.Delete(o, i, i+1)
	m.occ[l.part] -= l.size
	delete(m.lines, id)
	return l
}

// evictLRU evicts the LRU line of part and reports it.
func (m *refModel) evictLRU(part int, out []Evicted) []Evicted {
	id := m.order[part][0]
	l := m.unlink(id)
	m.parts[part].Evictions++
	m.global.Evictions++
	return append(out, Evicted{ID: id, Payload: l.payload})
}

// fill evicts part's LRU lines until it fits, sparing id when it is the
// partition's only line.
func (m *refModel) fill(part int, id BufID, out []Evicted) []Evicted {
	for m.occ[part] > m.caps[part] && len(m.order[part]) > 0 {
		if len(m.order[part]) == 1 && m.order[part][0] == id {
			break
		}
		out = m.evictLRU(part, out)
	}
	return out
}

// add makes id a new resident line in part; prevInc is the ID's last
// incarnation.
func (m *refModel) add(part int, id BufID, size, payload int64, prevInc int) {
	m.lines[id] = &modelLine{size: size, payload: payload, part: part, inc: prevInc + 1}
	m.order[part] = append(m.order[part], id)
	m.occ[part] += size
}

func (m *refModel) insert(part int, id BufID, size, payload int64, prevInc int) []Evicted {
	if size > m.caps[part] {
		return []Evicted{{ID: id, Payload: payload}}
	}
	p := part
	if l := m.lines[id]; l != nil {
		p = l.part
		m.occ[p] += size - l.size
		l.size, l.payload = size, payload
		m.toMRU(p, id)
	} else {
		m.add(part, id, size, payload, prevInc)
		m.parts[part].Insertions++
		m.global.Insertions++
	}
	return m.fill(p, id, nil)
}

func (m *refModel) touch(part int, id BufID, size int64, prevInc int) (bool, []Evicted) {
	if l := m.lines[id]; l != nil {
		m.toMRU(l.part, id)
		return true, nil
	}
	if size > m.caps[part] {
		return false, nil
	}
	m.add(part, id, size, size, prevInc)
	return false, m.fill(part, id, nil)
}

// read classifies a read of id through a ref of incarnation inc: a hit
// only when that incarnation is resident. consume retires the line; peek
// refreshes it.
func (m *refModel) read(part int, id BufID, inc int, consume, peek bool) bool {
	l := m.lines[id]
	if l == nil || l.inc != inc {
		m.parts[part].Misses++
		m.global.Misses++
		return false
	}
	m.parts[l.part].Hits++
	m.global.Hits++
	switch {
	case consume:
		m.unlink(id)
	case peek:
		m.toMRU(l.part, id)
	}
	return true
}

func (m *refModel) drop(id BufID, inc int) {
	if l := m.lines[id]; l != nil && l.inc == inc {
		m.unlink(id)
	}
}

func (m *refModel) move(from, to int, bytes int64) []Evicted {
	m.caps[from] -= bytes
	m.caps[to] += bytes
	var out []Evicted
	for m.occ[from] > m.caps[from] && len(m.order[from]) > 0 {
		out = m.evictLRU(from, out)
	}
	return out
}

func (m *refModel) imminent(part int, threshold int64) int {
	if threshold <= 0 {
		return 0
	}
	dist, n := m.caps[part]-m.occ[part], 0
	for _, id := range m.order[part] {
		if dist >= threshold {
			break
		}
		n++
		dist += m.lines[id].size
	}
	return n
}

// issued is one Ref an owner was handed, kept after its line is gone so
// stale reads can be checked.
type issued struct {
	id  BufID
	inc int
	ref Ref
}

// FuzzLLCRefs drives the ref-based LLC and refModel through the same
// random inserts, state touches, consumes, peeks, probes, drops, capacity
// moves and imminence probes over one to three partitions. Each op is
// three bytes: op, a (partition, size), b (buffer ID). Owners hold the
// current Ref of each ID; every Ref ever issued is also kept, and reads
// through a stale one (its line consumed, dropped or evicted, its node
// possibly reused since) must miss. After every step the hit/miss
// results, the evictions with their payloads, every partition's LRU
// order, occupancy and counters, the global counters, the residency of
// every issued Ref and checkInvariants must all agree with the model.
func FuzzLLCRefs(f *testing.F) {
	// One partition: three 1 KB inserts evict buffers 1 and 2 and reuse
	// buffer 1's node for buffer 3; a probe through buffer 1's ref misses.
	f.Add([]byte{0, 0, 0x3c, 1, 0, 0x3c, 2, 0, 0x3c, 3, 7, 0, 0})
	// Two partitions: a state line fills partition 0, a way moves to
	// partition 1 and flushes it, its stale ref misses, and a second touch
	// fills it again.
	f.Add([]byte{1, 2, 0x3c, 0x81, 0, 0x3d, 2, 6, 0, 0, 7, 0, 0, 2, 0x38, 0x81})
	// Three partitions: an oversize insert bypasses, buffer 5 is dropped
	// and refilled into its old node, and a drop through the first ref
	// leaves the refill resident.
	f.Add([]byte{2, 0, 0x60, 5, 1, 0x58, 6, 5, 0, 5, 0, 0x60, 5, 7, 1, 0})
	long := make([]byte, 0, 3*300)
	for i := 0; i < 300; i++ {
		long = append(long, byte(i*7), byte(i*13), byte(i%40))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nParts := 1 + int(data[0])%3
		caps := make([]int64, nParts)
		var total int64
		for i := range caps {
			caps[i] = 1024
			total += caps[i]
		}
		c := NewLLC(total)
		if err := c.Partition(caps); err != nil {
			t.Fatal(err)
		}
		m := newRefModel(caps)
		cur := map[BufID]*issued{} // each ID's owner handle
		var hist []issued
		lastInc := map[BufID]int{}

		// handle returns id's owner slot, creating an empty one.
		handle := func(id BufID) *issued {
			h := cur[id]
			if h == nil {
				h = &issued{id: id}
				cur[id] = h
			}
			return h
		}
		// track records a fresh line for h when the model made one.
		track := func(h *issued) {
			if l := m.lines[h.id]; l != nil && l.inc > lastInc[h.id] {
				lastInc[h.id] = l.inc
				h.inc = l.inc
				hist = append(hist, *h)
			}
		}
		sameEvicted := func(step int, what string, got, want []Evicted) {
			t.Helper()
			if len(got) != len(want) || (len(got) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("step %d %s: evicted %v, model %v", step, what, got, want)
			}
		}

		for step, i := 0, 1; i+2 < len(data) && step < 400; step, i = step+1, i+3 {
			op, a, b := data[i], data[i+1], data[i+2]
			part := int(a) % nParts
			size := int64(64 * (1 + int(a>>2)%24)) // up to 1536 B: some never fit
			id := BufID(b % 48)
			if b&0x80 != 0 {
				id |= 1 << 63 // state-line tagged IDs share the cache
			}
			switch op % 8 {
			case 0, 1: // DDIO insert through the owner's ref
				h := handle(id)
				payload := size - int64(b%3)*16
				got := c.InsertIOSized(part, &h.ref, id, size, payload)
				want := m.insert(part, id, size, payload, lastInc[id])
				sameEvicted(step, "insert", got, want)
				track(h)
			case 2: // dataplane state touch
				h := handle(id)
				hit, got := c.TouchState(part, &h.ref, id, size)
				mhit, want := m.touch(part, id, size, lastInc[id])
				if hit != mhit {
					t.Fatalf("step %d touch %d: hit %v, model %v", step, id, hit, mhit)
				}
				sameEvicted(step, "touch", got, want)
				track(h)
			case 3, 4, 5: // consume, peek or probe, drop through the owner's ref
				h := handle(id)
				inc := h.inc
				if h.ref == (Ref{}) {
					inc = -1
				}
				switch {
				case op%8 == 5:
					c.Drop(h.ref)
					m.drop(id, inc)
				case op%8 == 3:
					if got, want := c.ConsumeIn(part, h.ref), m.read(part, id, inc, true, false); got != want {
						t.Fatalf("step %d consume %d: hit %v, model %v", step, id, got, want)
					}
				case a&1 == 0:
					if got, want := c.PeekIn(part, h.ref), m.read(part, id, inc, false, true); got != want {
						t.Fatalf("step %d peek %d: hit %v, model %v", step, id, got, want)
					}
				default:
					if got, want := c.ProbeIn(part, h.ref), m.read(part, id, inc, false, false); got != want {
						t.Fatalf("step %d probe %d: hit %v, model %v", step, id, got, want)
					}
				}
			case 6: // move capacity between partitions (a way changing hands)
				from, to := part, (part+1+int(b)%2)%nParts
				bytes := int64(64 * (1 + int(b)%8))
				if from == to || bytes > m.caps[from] {
					continue
				}
				sameEvicted(step, "move", c.MoveCapacity(from, to, bytes), m.move(from, to, bytes))
			case 7: // read or drop through a historical ref, then an imminence probe
				if len(hist) > 0 {
					h := hist[int(b)%len(hist)]
					if a&1 == 0 {
						if got, want := c.ProbeIn(part, h.ref), m.read(part, h.id, h.inc, false, false); got != want {
							t.Fatalf("step %d stale probe %d/%d: hit %v, model %v", step, h.id, h.inc, got, want)
						}
					} else {
						c.Drop(h.ref)
						m.drop(h.id, h.inc)
					}
				}
				thr := int64(b) * 16
				if got, want := c.ImminentIn(part, thr, nil), m.imminent(part, thr); got != want {
					t.Fatalf("step %d imminent(%d, %d) = %d, model %d", step, part, thr, got, want)
				}
			}
			if err := compareModel(c, m, hist); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op%8, err)
			}
		}
	})
}

// compareModel checks every observable of c against m.
func compareModel(c *LLC, m *refModel, hist []issued) error {
	if err := c.checkInvariants(); err != nil {
		return err
	}
	var occ int64
	for p := range m.caps {
		var got []BufID
		for i := c.parts[p].head; i != 0; i = c.nodes[i].next {
			got = append(got, c.nodes[i].id)
		}
		slices.Reverse(got)
		if !slices.Equal(got, m.order[p]) {
			return fmt.Errorf("partition %d LRU order %v, model %v", p, got, m.order[p])
		}
		if c.PartCapacity(p) != m.caps[p] || c.PartOccupancy(p) != m.occ[p] {
			return fmt.Errorf("partition %d cap/occ %d/%d, model %d/%d", p, c.PartCapacity(p), c.PartOccupancy(p), m.caps[p], m.occ[p])
		}
		if c.PartStats(p) != m.parts[p] {
			return fmt.Errorf("partition %d stats %+v, model %+v", p, c.PartStats(p), m.parts[p])
		}
		occ += m.occ[p]
	}
	if c.Occupancy() != occ || c.Len() != len(m.lines) {
		return fmt.Errorf("occupancy/len %d/%d, model %d/%d", c.Occupancy(), c.Len(), occ, len(m.lines))
	}
	if g := (PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}); g != m.global {
		return fmt.Errorf("global stats %+v, model %+v", g, m.global)
	}
	for _, h := range hist {
		l := m.lines[h.id]
		if want := l != nil && l.inc == h.inc; c.Resident(h.ref) != want {
			return fmt.Errorf("ref %+v of buffer %d incarnation %d: resident %v, model %v", h.ref, h.id, h.inc, !want, want)
		}
	}
	return nil
}
