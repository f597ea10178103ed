package ring

import (
	"testing"
	"testing/quick"

	"ceio/internal/pkt"
)

func mkPkt(seq uint64) *pkt.Packet { return &pkt.Packet{Seq: seq, Size: 64} }

func TestHWRingFIFO(t *testing.T) {
	r := NewHWRing(8)
	for i := uint64(0); i < 8; i++ {
		if !r.Post(mkPkt(i)) {
			t.Fatalf("post %d failed", i)
		}
	}
	if r.Post(mkPkt(99)) {
		t.Fatal("post to full ring should fail")
	}
	if r.Full != 1 {
		t.Fatalf("full count = %d", r.Full)
	}
	for i := uint64(0); i < 8; i++ {
		p := r.Pop()
		if p == nil || p.Seq != i {
			t.Fatalf("pop %d got %+v", i, p)
		}
	}
	if r.Pop() != nil {
		t.Fatal("pop from empty should be nil")
	}
}

func TestHWRingWraparound(t *testing.T) {
	r := NewHWRing(4)
	seq := uint64(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Post(mkPkt(seq)) {
				t.Fatal("post failed")
			}
			seq++
		}
		for i := 0; i < 3; i++ {
			p := r.Pop()
			if p == nil {
				t.Fatal("unexpected empty")
			}
		}
	}
	if r.Posted != 30 || r.Popped != 30 {
		t.Fatalf("posted=%d popped=%d", r.Posted, r.Popped)
	}
}

func TestHWRingPeekAndBatch(t *testing.T) {
	r := NewHWRing(8)
	for i := uint64(0); i < 5; i++ {
		r.Post(mkPkt(i))
	}
	if p := r.Peek(); p == nil || p.Seq != 0 {
		t.Fatalf("peek = %+v", p)
	}
	if r.Len() != 5 {
		t.Fatal("peek must not consume")
	}
	out := r.PopBatch(nil, 3)
	if len(out) != 3 || out[2].Seq != 2 {
		t.Fatalf("batch = %v", out)
	}
	out = r.PopBatch(out[:0], 10)
	if len(out) != 2 {
		t.Fatalf("second batch = %d", len(out))
	}
}

func TestHWRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHWRing(3)
}

// Property: any interleaving of posts and pops preserves FIFO order and
// never exceeds capacity.
func TestHWRingFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewHWRing(16)
		nextPost, nextPop := uint64(0), uint64(0)
		for _, isPost := range ops {
			if isPost {
				if r.Post(mkPkt(nextPost)) {
					nextPost++
				}
			} else if p := r.Pop(); p != nil {
				if p.Seq != nextPop {
					return false
				}
				nextPop++
			}
			if r.Len() > r.Cap() || r.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSWRingFastOnly(t *testing.T) {
	r := NewSWRing(8)
	for i := uint64(0); i < 4; i++ {
		if !r.PushFast(mkPkt(i)) {
			t.Fatal("push failed")
		}
	}
	for i := uint64(0); i < 4; i++ {
		p := r.PopReady()
		if p == nil || p.Seq != i {
			t.Fatalf("pop %d got %+v", i, p)
		}
	}
}

func TestSWRingSlowBlocksUntilReady(t *testing.T) {
	r := NewSWRing(8)
	r.PushFast(mkPkt(0))
	idx, ok := r.PushSlow(mkPkt(1))
	if !ok {
		t.Fatal("push slow failed")
	}
	r.PushFast(mkPkt(2))

	if p := r.PopReady(); p == nil || p.Seq != 0 {
		t.Fatalf("first pop = %+v", p)
	}
	// Head is now the unready slow entry: FIFO must block even though a
	// ready fast entry sits behind it.
	if p := r.PopReady(); p != nil {
		t.Fatalf("pop before MarkReady returned %+v", p)
	}
	if head := r.PeekHead(); head == nil || !head.Slow || head.Ready {
		t.Fatalf("head = %+v", head)
	}
	r.MarkReady(idx)
	if p := r.PopReady(); p == nil || p.Seq != 1 {
		t.Fatalf("pop after MarkReady = %+v", p)
	}
	if p := r.PopReady(); p == nil || p.Seq != 2 {
		t.Fatalf("final pop = %+v", p)
	}
}

func TestSWRingPendingSlow(t *testing.T) {
	r := NewSWRing(16)
	r.PushFast(mkPkt(0))
	i1, _ := r.PushSlow(mkPkt(1))
	r.PushFast(mkPkt(2))
	i3, _ := r.PushSlow(mkPkt(3))
	pending := r.PendingSlow(10)
	if len(pending) != 2 || pending[0] != i1 || pending[1] != i3 {
		t.Fatalf("pending = %v, want [%d %d]", pending, i1, i3)
	}
	r.MarkReady(i1)
	pending = r.PendingSlow(10)
	if len(pending) != 1 || pending[0] != i3 {
		t.Fatalf("pending after mark = %v", pending)
	}
	if got := r.PendingSlow(0); len(got) != 0 {
		t.Fatalf("limit 0 gave %v", got)
	}
}

func TestSWRingFull(t *testing.T) {
	r := NewSWRing(4)
	for i := uint64(0); i < 4; i++ {
		r.PushFast(mkPkt(i))
	}
	if r.PushFast(mkPkt(9)) {
		t.Fatal("push to full should fail")
	}
	if _, ok := r.PushSlow(mkPkt(9)); ok {
		t.Fatal("push slow to full should fail")
	}
}

// The backing array starts small and doubles as the live window grows,
// wrapped or not; indices PushSlow returned before a doubling still mark
// the right entries, and the ring still fills at exactly Cap.
func TestSWRingGrowsBacking(t *testing.T) {
	const capacity = 1024
	r := NewSWRing(capacity)
	if got := len(r.entries); got != initialBacking {
		t.Fatalf("initial backing %d entries, want %d", got, initialBacking)
	}
	var seq uint64
	for ; seq < 40; seq++ { // move head off slot 0 so the window wraps
		r.PushFast(mkPkt(seq))
		if r.PopReady() == nil {
			t.Fatal("pop of a fast entry failed")
		}
	}
	var slow []uint64
	for i := 0; i < capacity; i++ {
		var ok bool
		if i%3 == 0 {
			var idx uint64
			idx, ok = r.PushSlow(mkPkt(seq))
			slow = append(slow, idx)
		} else {
			ok = r.PushFast(mkPkt(seq))
		}
		if !ok {
			t.Fatalf("push %d of %d failed", i, capacity)
		}
		seq++
	}
	if r.Len() != capacity || len(r.entries) != capacity {
		t.Fatalf("Len=%d backing=%d, want both %d", r.Len(), len(r.entries), capacity)
	}
	if r.PushFast(mkPkt(seq)) {
		t.Fatal("push past Cap succeeded")
	}
	for _, idx := range slow {
		r.MarkReady(idx)
	}
	for want := uint64(40); want < seq; want++ {
		p := r.PopReady()
		if p == nil || p.Seq != want {
			t.Fatalf("popped %v, want seq %d", p, want)
		}
	}
}

func TestSWRingMarkReadyPanics(t *testing.T) {
	r := NewSWRing(4)
	r.PushFast(mkPkt(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on fast-entry MarkReady")
		}
	}()
	r.MarkReady(0)
}

// Property: arbitrary interleavings of fast pushes, slow pushes, ready
// marks and pops always deliver packets in push order.
func TestSWRingOrderProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0 pushFast, 1 pushSlow, 2 markOldestPending, 3 pop
	}
	f := func(ops []op) bool {
		r := NewSWRing(32)
		var seq, expect uint64
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				if r.PushFast(mkPkt(seq)) {
					seq++
				}
			case 1:
				if _, ok := r.PushSlow(mkPkt(seq)); ok {
					seq++
				}
			case 2:
				if p := r.PendingSlow(1); len(p) == 1 {
					r.MarkReady(p[0])
				}
			case 3:
				if p := r.PopReady(); p != nil {
					if p.Seq != expect {
						return false
					}
					expect++
				}
			}
		}
		// Drain: mark everything ready, pop all.
		for _, i := range r.PendingSlow(r.Cap()) {
			r.MarkReady(i)
		}
		for {
			p := r.PopReady()
			if p == nil {
				break
			}
			if p.Seq != expect {
				return false
			}
			expect++
		}
		return expect == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
