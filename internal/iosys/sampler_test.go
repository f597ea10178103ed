package iosys_test

import (
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// TestSamplerZeroIntervalDisabled: a non-positive interval must yield a
// disabled sampler — no ticks, empty series, safe Stop — not a panic from
// the engine's Every (which rejects non-positive periods).
func TestSamplerZeroIntervalDisabled(t *testing.T) {
	for _, interval := range []sim.Time{0, -sim.Millisecond} {
		m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
		m.AddFlow(echoSpec(1, 1024))
		s := iosys.NewSampler(m, interval)
		m.Run(3 * sim.Millisecond)
		if n := len(s.InvolvedMpps.Points); n != 0 {
			t.Fatalf("interval %d: disabled sampler recorded %d points, want 0", interval, n)
		}
		s.Stop() // must not panic on the no-op cancel
	}
}

// TestSamplerTickOnSimEnd: the engine runs events scheduled exactly at the
// end time, so a run of k*interval yields k samples with the last one
// landing exactly on the sim end.
func TestSamplerTickOnSimEnd(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	m.AddFlow(echoSpec(1, 1024))
	s := iosys.NewSampler(m, sim.Millisecond)
	end := 5 * sim.Millisecond
	m.Run(end)
	if n := len(s.InvolvedMpps.Points); n != 5 {
		t.Fatalf("recorded %d samples over 5 intervals, want 5", n)
	}
	if last := s.InvolvedMpps.Points[4].T; last != end {
		t.Fatalf("last sample at %d, want exactly sim end %d", last, end)
	}
	for _, p := range s.InvolvedMpps.Points {
		if p.V <= 0 {
			t.Fatalf("sample at %d has non-positive rate %f for a busy flow", p.T, p.V)
		}
	}
}

// TestSamplerRebaselinesAfterReset: a ResetWindow between ticks rewinds
// the machine counters; the next tick must re-baseline instead of
// recording a wrapped (enormous) delta.
func TestSamplerRebaselinesAfterReset(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	m.AddFlow(echoSpec(1, 1024))
	s := iosys.NewSampler(m, sim.Millisecond)
	m.Eng.At(2500*sim.Microsecond, func(any) { m.ResetWindow() }, nil)
	m.Run(5 * sim.Millisecond)
	// The tick at 3ms lands after the reset and is skipped (re-baseline);
	// four samples remain, all with sane rates.
	if n := len(s.InvolvedMpps.Points); n != 4 {
		t.Fatalf("recorded %d samples, want 4 (reset swallows one tick)", n)
	}
	for _, p := range s.InvolvedMpps.Points {
		if p.V < 0 || p.V > 1000 {
			t.Fatalf("sample at %d has implausible rate %f (wrapped delta?)", p.T, p.V)
		}
	}
}

// TestSamplerStopHaltsTicks: Stop cancels future ticks mid-run.
func TestSamplerStopHaltsTicks(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	m.AddFlow(echoSpec(1, 1024))
	s := iosys.NewSampler(m, sim.Millisecond)
	m.Eng.At(2500*sim.Microsecond, func(any) { s.Stop() }, nil)
	m.Run(5 * sim.Millisecond)
	if n := len(s.InvolvedMpps.Points); n != 2 {
		t.Fatalf("recorded %d samples after Stop at 2.5ms, want 2", n)
	}
}
