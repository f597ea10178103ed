package pkt

import (
	"testing"
	"unsafe"
)

func TestPathString(t *testing.T) {
	if PathFast.String() != "fast" || PathSlow.String() != "slow" {
		t.Fatalf("path strings: %s %s", PathFast, PathSlow)
	}
}

func TestZeroValuePacket(t *testing.T) {
	var p Packet
	if p.Path != PathFast {
		t.Fatal("zero packet should default to the fast path")
	}
	if p.Landed || p.Marked || p.MsgEnd || p.HostBuf != nil {
		t.Fatal("zero packet flags should be clear")
	}
}

// TestPacketFitsSizeClass pins the descriptor's layout: packed, it takes
// 72 bytes and the allocator's 80-byte size class. A field placed between
// flags would pad it into the 96-byte class, 20% more memory for every
// descriptor the pool ever allocates.
func TestPacketFitsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 72 {
		t.Fatalf("Packet is %d bytes, want at most 72", got)
	}
}
