package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSpanOpenCloseZeroAllocs pins the collector's explicit open/close path
// (StartAt/EndAt — the per-message wire-span path) at zero allocations per
// span while the preallocated store has room: records are written in place,
// and EndAt stamps by index.
func TestSpanOpenCloseZeroAllocs(t *testing.T) {
	c := NewCollector()
	allocs := testing.AllocsPerRun(200, func() {
		id := c.StartAt("wire.ping", 0, 0, sim.Time(1000))
		c.EndAt(id, sim.Time(2000))
	})
	if allocs != 0 {
		t.Fatalf("StartAt/EndAt allocates %v allocs/op within preallocated capacity, want 0", allocs)
	}
}

// TestScopeBeginEndZeroAllocs covers the process-bound form (Begin/End via
// Scope): the Scope is a value, so opening and closing a span from a running
// process must not allocate either.
func TestScopeBeginEndZeroAllocs(t *testing.T) {
	c := NewCollector()
	e := sim.NewEngine()
	defer e.Close()
	e.SpawnDaemon("spanner", func(p *sim.Proc) {
		for {
			s := c.Begin(p, "op.tick", 0)
			s.End()
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.RunFor(50 * time.Microsecond); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(5 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Begin/End allocates %v allocs/op within preallocated capacity, want 0", allocs)
	}
}

// TestBufferRingOverwriteZeroAllocs pins the event ring: Add fills the
// preallocated array and, once it is full, overwrites the oldest record in
// place, so a long traced run costs no allocation per event however many
// it drops.
func TestBufferRingOverwriteZeroAllocs(t *testing.T) {
	b := NewBuffer(8)
	ev := Event{At: sim.Time(1000), Kind: "msg.send", Node: 0, Detail: "ping to k1"}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			b.Add(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("Buffer.Add allocates %v allocs per 16 events on a full ring, want 0", allocs)
	}
	if b.Len() != 8 || b.Dropped() == 0 {
		t.Fatalf("ring holds %d events with %d dropped, want 8 and some dropped", b.Len(), b.Dropped())
	}
}
