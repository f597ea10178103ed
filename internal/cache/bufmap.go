package cache

import "math/bits"

// BufMap is an open-addressed hash table keyed by BufID: RDCA's
// in-flight tags, set and cleared for every RDCA packet and probed for
// every line an eviction report or an imminence walk names. (The LLC
// itself has no index; owners hold Refs.)
// It probes linearly from a multiplicative (Fibonacci) hash and deletes
// by backward shift, so there are no tombstones and a probe never walks
// past the key's cluster. The zero value is an empty table; it allocates
// on the first Put and doubles when half full, so it is never sized at
// construction.
//
// The hash must not be the identity. BufIDs come from a monotone counter,
// and the live set is a sliding window of consecutive IDs: an identity
// hash would lay them out as one long run that every miss probe walks to
// its end. Multiplying by 2^64/φ spreads consecutive keys evenly over the
// table, and the top bits keep the spread for high-tagged IDs too
// (dataplane state lines, which the imminence walk probes, set bit 63).
//
// BufMap has no iteration: nothing depends on the order of its entries.
type BufMap[V any] struct {
	slots []bufSlot[V]
	n     int
	shift uint8 // 64 - log2(len(slots))
}

type bufSlot[V any] struct {
	key  BufID
	val  V
	used bool
}

// fibMul is 2^64/φ rounded to odd: Knuth's multiplicative hashing constant.
const fibMul = 0x9E3779B97F4A7C15

// bufMapMinSlots is the table size of the first allocation.
const bufMapMinSlots = 16

func (m *BufMap[V]) home(k BufID) int { return int((uint64(k) * fibMul) >> m.shift) }

// Len returns the number of entries.
func (m *BufMap[V]) Len() int { return m.n }

// find returns the slot index holding k, or -1.
func (m *BufMap[V]) find(k BufID) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			return -1
		}
		if s.key == k {
			return i
		}
	}
}

// Get returns k's value and whether k is present.
func (m *BufMap[V]) Get(k BufID) (V, bool) {
	if i := m.find(k); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (m *BufMap[V]) Has(k BufID) bool { return m.find(k) >= 0 }

// Put sets k's value, inserting k if absent.
func (m *BufMap[V]) Put(k BufID, v V) {
	if 2*(m.n+1) > len(m.slots) {
		m.resize()
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			*s = bufSlot[V]{key: k, val: v, used: true}
			m.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// Delete removes k and returns the value it held, reporting whether k was
// present.
func (m *BufMap[V]) Delete(k BufID) (V, bool) {
	i := m.find(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := m.slots[i].val
	// Backward shift: pull each later member of the cluster whose home is
	// not cyclically in (i, j] back into the hole, so every remaining key
	// stays reachable from its home without tombstones.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		h := m.home(m.slots[j].key)
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = bufSlot[V]{}
	m.n--
	return v, true
}

// resize doubles the table (or allocates the first one) and re-places
// every entry.
func (m *BufMap[V]) resize() {
	old := m.slots
	size := 2 * len(old)
	if size < bufMapMinSlots {
		size = bufMapMinSlots
	}
	m.slots = make([]bufSlot[V], size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].used {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}
