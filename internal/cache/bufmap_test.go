package cache

import (
	"math"
	"testing"
)

// fibInv is the multiplicative inverse of fibMul mod 2^64 (Newton's
// iteration doubles the correct low bits each step). Keys j*fibInv hash
// to j before the shift, so small j all share home slot 0 at every table
// size, and (2^64-32+j)*fibInv puts a cluster on the last slot that wraps.
var fibInv = func() uint64 {
	x := uint64(fibMul)
	for i := 0; i < 6; i++ {
		x *= 2 - fibMul*x
	}
	return x
}()

// fuzzKey maps one byte to a key from four families: consecutive small
// IDs (the LLC's monotone packet buffers), high-tagged IDs (dataplane
// state lines), keys colliding on home slot 0, and keys colliding on the
// last slot so their cluster wraps around the table.
func fuzzKey(b byte) BufID {
	j := uint64(b & 63)
	switch b >> 6 {
	case 0:
		return BufID(j)
	case 1:
		return BufID(1<<63 | j)
	case 2:
		return BufID(j * fibInv)
	default:
		return BufID((math.MaxUint64 - 31 + j) * fibInv)
	}
}

// FuzzBufMap drives a BufMap and a reference Go map through the same
// random puts, gets, deletes and length checks. Each op is two bytes: the
// op (b & 3: put, get, delete, len) and the key (see fuzzKey). After every
// delete, every reference key must still be reachable, which is what
// backward-shift deletion has to preserve.
func FuzzBufMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 1, 1, 1, 3, 0})
	f.Add([]byte{0, 128, 0, 129, 0, 130, 2, 128, 1, 129, 1, 130}) // home-0 cluster, delete its head
	f.Add([]byte{0, 192, 0, 193, 0, 224, 0, 225, 2, 192, 1, 224}) // wrapping cluster
	grow := make([]byte, 0, 2*200)
	for i := 0; i < 200; i++ { // crosses several resizes, then deletes half
		op := byte(0)
		if i >= 150 {
			op = 2
		}
		grow = append(grow, op, byte(i*7))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m BufMap[int]
		ref := make(map[BufID]int)
		for i := 0; i+1 < len(data); i += 2 {
			k := fuzzKey(data[i+1])
			switch data[i] & 3 {
			case 0:
				m.Put(k, i)
				ref[k] = i
			case 1:
				v, ok := m.Get(k)
				rv, rok := ref[k]
				if ok != rok || v != rv || m.Has(k) != rok {
					t.Fatalf("op %d: Get(%#x) = %d,%v; want %d,%v", i/2, k, v, ok, rv, rok)
				}
			case 2:
				v, ok := m.Delete(k)
				rv, rok := ref[k]
				delete(ref, k)
				if ok != rok || v != rv {
					t.Fatalf("op %d: Delete(%#x) = %d,%v; want %d,%v", i/2, k, v, ok, rv, rok)
				}
				for rk, rv := range ref {
					if v, ok := m.Get(rk); !ok || v != rv {
						t.Fatalf("op %d: after Delete(%#x), Get(%#x) = %d,%v; want %d,true", i/2, k, rk, v, ok, rv)
					}
				}
			case 3:
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i/2, m.Len(), len(ref))
			}
		}
	})
}

// The collision families really do collide: otherwise FuzzBufMap would
// never build the clusters backward-shift deletion has to repair.
func TestBufMapFuzzKeysCollide(t *testing.T) {
	var m BufMap[int]
	m.Put(0, 0) // allocate the first table
	for j := byte(0); j < 64; j++ {
		if h := m.home(fuzzKey(128 | j)); h != 0 {
			t.Fatalf("key family 2, j=%d: home %d, want 0", j, h)
		}
		want := len(m.slots) - 1
		if j >= 32 {
			want = 0
		}
		if h := m.home(fuzzKey(192 | j)); h != want {
			t.Fatalf("key family 3, j=%d: home %d, want %d", j, h, want)
		}
	}
}

// A table starts with no storage and doubles only while at least half
// full, so memory follows the live set.
func TestBufMapGrowsLazily(t *testing.T) {
	var m BufMap[*node]
	if len(m.slots) != 0 {
		t.Fatalf("zero value has %d slots", len(m.slots))
	}
	for i := 0; i < 1000; i++ {
		m.Put(BufID(i), nil)
	}
	if got := len(m.slots); got != 2048 {
		t.Fatalf("1000 entries in %d slots, want 2048", got)
	}
	for i := 0; i < 1000; i++ {
		if _, ok := m.Delete(BufID(i)); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
}
