package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func TestPageOfAndBase(t *testing.T) {
	if PageOf(0) != 0 || PageOf(hw.PageSize-1) != 0 || PageOf(hw.PageSize) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
	if VPN(3).Base() != Addr(3*hw.PageSize) {
		t.Fatalf("Base = %d", VPN(3).Base())
	}
}

func TestPagesSpanned(t *testing.T) {
	tests := []struct {
		a      Addr
		length uint64
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, hw.PageSize, 1},
		{0, hw.PageSize + 1, 2},
		{hw.PageSize - 1, 2, 2},
		{hw.PageSize, hw.PageSize, 1},
		{100, 3 * hw.PageSize, 4},
	}
	for _, tt := range tests {
		if got := PagesSpanned(tt.a, tt.length); got != tt.want {
			t.Errorf("PagesSpanned(%d, %d) = %d, want %d", tt.a, tt.length, got, tt.want)
		}
	}
}

func TestProtBits(t *testing.T) {
	p := ProtRead | ProtWrite
	if !p.Readable() || !p.Writable() {
		t.Fatal("bits not set")
	}
	if p.String() != "rw-" {
		t.Fatalf("String = %q", p)
	}
	if (ProtRead | ProtExec).String() != "r-x" {
		t.Fatalf("String = %q", ProtRead|ProtExec)
	}
}

func TestFrameAllocatorBasics(t *testing.T) {
	a, err := NewFrameAllocator(1, 100, 4)
	if err != nil {
		t.Fatalf("NewFrameAllocator: %v", err)
	}
	if a.Node() != 1 || a.Available() != 4 || a.InUse() != 0 {
		t.Fatal("fresh allocator state wrong")
	}
	f1, err := a.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if f1 != 100 {
		t.Fatalf("first frame = %d, want 100", f1)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("exhausted allocator still allocated")
	}
	if err := a.Free(f1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if a.Available() != 1 {
		t.Fatalf("Available = %d after free", a.Available())
	}
}

func TestFrameAllocatorRejectsBadFrees(t *testing.T) {
	a, _ := NewFrameAllocator(0, 10, 4)
	if err := a.Free(9); err == nil {
		t.Error("freed frame below partition")
	}
	if err := a.Free(14); err == nil {
		t.Error("freed frame above partition")
	}
	f, _ := a.Alloc()
	if err := a.Free(f); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a.Free(f); err == nil {
		t.Error("double free accepted")
	}
}

func TestFrameAllocatorValidation(t *testing.T) {
	if _, err := NewFrameAllocator(0, 0, 0); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := NewFrameAllocator(0, -5, 4); err == nil {
		t.Error("negative start accepted")
	}
}

func TestFrameAllocatorNoDoubleAllocationProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees never hands out a
	// frame twice while it is outstanding.
	f := func(ops []bool) bool {
		a, err := NewFrameAllocator(0, 0, 16)
		if err != nil {
			return false
		}
		held := make(map[FrameID]bool)
		var order []FrameID
		for _, alloc := range ops {
			if alloc {
				fr, err := a.Alloc()
				if err != nil {
					continue // exhausted is fine
				}
				if held[fr] {
					return false // double allocation!
				}
				held[fr] = true
				order = append(order, fr)
			} else if len(order) > 0 {
				fr := order[0]
				order = order[1:]
				if err := a.Free(fr); err != nil {
					return false
				}
				delete(held, fr)
			}
		}
		return a.InUse() == len(held)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableSetLookupClear(t *testing.T) {
	pt := NewPageTable()
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("empty table has entry")
	}
	pt.Set(5, PTE{Frame: 42, Prot: ProtRead})
	e, ok := pt.Lookup(5)
	if !ok || e.Frame != 42 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d", pt.Len())
	}
	if !pt.Clear(5) {
		t.Fatal("Clear returned false for present entry")
	}
	if pt.Clear(5) {
		t.Fatal("Clear returned true for absent entry")
	}
}

func TestPageTableClearRange(t *testing.T) {
	pt := NewPageTable()
	for v := VPN(0); v < 10; v++ {
		pt.Set(v, PTE{Frame: FrameID(v), Prot: ProtRead})
	}
	cleared := pt.ClearRange(3, 7)
	if len(cleared) != 4 {
		t.Fatalf("cleared %d entries, want 4", len(cleared))
	}
	if pt.Len() != 6 {
		t.Fatalf("Len = %d, want 6", pt.Len())
	}
	if _, ok := pt.Lookup(3); ok {
		t.Fatal("entry 3 survived ClearRange")
	}
	if _, ok := pt.Lookup(7); !ok {
		t.Fatal("entry 7 (exclusive bound) was cleared")
	}
}

func TestPageTableDowngrade(t *testing.T) {
	pt := NewPageTable()
	pt.Set(1, PTE{Frame: 1, Prot: ProtRead | ProtWrite})
	pt.Set(2, PTE{Frame: 2, Prot: ProtRead})
	n := pt.Downgrade(0, 10)
	if n != 1 {
		t.Fatalf("Downgrade changed %d entries, want 1", n)
	}
	e, _ := pt.Lookup(1)
	if e.Prot.Writable() {
		t.Fatal("entry 1 still writable after Downgrade")
	}
	if !e.Prot.Readable() {
		t.Fatal("Downgrade removed the read bit")
	}
}

func TestPageTableAllSnapshot(t *testing.T) {
	pt := NewPageTable()
	pt.Set(1, PTE{Frame: 10, Prot: ProtRead})
	pt.Set(2, PTE{Frame: 20, Prot: ProtRead | ProtWrite})
	snap := pt.All()
	if len(snap) != 2 || snap[1].Frame != 10 || snap[2].Frame != 20 {
		t.Fatalf("All = %v", snap)
	}
	// Mutating the snapshot must not affect the table.
	delete(snap, 1)
	if _, ok := pt.Lookup(1); !ok {
		t.Fatal("snapshot mutation leaked into the table")
	}
}

// eagerFrames is the reference allocator the lazy one must match: the
// original design that materialises every frame of the partition up front
// as a descending free stack, so pops come out ascending and freed frames
// are reused LIFO.
type eagerFrames struct {
	node      int
	start     FrameID
	count     int
	free      []FrameID
	allocated map[FrameID]bool
}

func newEagerFrames(node int, start FrameID, count int) *eagerFrames {
	r := &eagerFrames{node: node, start: start, count: count}
	r.Reset()
	return r
}

func (r *eagerFrames) Reset() {
	r.free = r.free[:0]
	r.allocated = make(map[FrameID]bool)
	for i := r.count - 1; i >= 0; i-- {
		r.free = append(r.free, r.start+FrameID(i))
	}
}

func (r *eagerFrames) Alloc() (FrameID, error) {
	if len(r.free) == 0 {
		return NoFrame, fmt.Errorf("mem: partition [%d,%d) on node %d out of frames", r.start, r.start+FrameID(r.count), r.node)
	}
	f := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.allocated[f] = true
	return f, nil
}

func (r *eagerFrames) Free(f FrameID) error {
	if f < r.start || f >= r.start+FrameID(r.count) {
		return fmt.Errorf("mem: frame %d not in partition [%d,%d)", f, r.start, r.start+FrameID(r.count))
	}
	if !r.allocated[f] {
		return fmt.Errorf("mem: double free of frame %d", f)
	}
	delete(r.allocated, f)
	r.free = append(r.free, f)
	return nil
}

// TestFrameAllocatorMatchesEagerReference drives random Alloc/Free/Reset
// sequences — exhausting small partitions, freeing held frames, frames
// never handed out, already-freed frames and frames outside the partition —
// through the lazy allocator and the eager reference side by side. Every
// step must hand out the same frame, fail with the same error text, and
// leave the same InUse and Available counts.
func TestFrameAllocatorMatchesEagerReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(9)
		start := FrameID(rng.Intn(3) * 100)
		lazy, err := NewFrameAllocator(int(seed%2), start, count)
		if err != nil {
			t.Fatalf("seed %d: NewFrameAllocator: %v", seed, err)
		}
		ref := newEagerFrames(int(seed%2), start, count)
		var held []FrameID
		for step := 0; step < 300; step++ {
			var op string
			var gotF, wantF FrameID
			var gotErr, wantErr error
			switch r := rng.Intn(20); {
			case r < 9:
				op = "Alloc"
				gotF, gotErr = lazy.Alloc()
				wantF, wantErr = ref.Alloc()
				if wantErr == nil {
					held = append(held, wantF)
				}
			case r < 15 && len(held) > 0:
				i := rng.Intn(len(held))
				gotF = held[i]
				held = append(held[:i], held[i+1:]...)
				op = fmt.Sprintf("Free(held %d)", gotF)
				wantF = gotF
				gotErr, wantErr = lazy.Free(gotF), ref.Free(gotF)
			case r < 19:
				// Any frame in or around the partition: never handed out,
				// already freed, held, or foreign.
				gotF = start - 2 + FrameID(rng.Intn(count+4))
				op = fmt.Sprintf("Free(%d)", gotF)
				wantF = gotF
				gotErr, wantErr = lazy.Free(gotF), ref.Free(gotF)
				if wantErr == nil {
					for i, h := range held {
						if h == gotF {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
			default:
				op = "Reset"
				lazy.Reset()
				ref.Reset()
				held = held[:0]
			}
			if gotF != wantF || errText(gotErr) != errText(wantErr) {
				t.Fatalf("seed %d step %d %s: lazy (%d, %v), eager (%d, %v)", seed, step, op, gotF, gotErr, wantF, wantErr)
			}
			if lazy.InUse() != len(ref.allocated) || lazy.Available() != len(ref.free) {
				t.Fatalf("seed %d step %d %s: lazy InUse=%d Available=%d, eager InUse=%d Available=%d",
					seed, step, op, lazy.InUse(), lazy.Available(), len(ref.allocated), len(ref.free))
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
