// Package trace provides a bounded, allocation-light event buffer for
// protocol debugging: the message fabric (and anything else) can record
// timestamped events into it, and tools dump or filter them after a run.
// Tracing is off unless a buffer is attached, so the benchmarks pay
// nothing.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Event is one recorded occurrence.
type Event struct {
	// At is the virtual time of the event.
	At sim.Time
	// Kind groups events ("msg.send", "msg.deliver", ...).
	Kind string
	// Node is the kernel the event happened on (-1 if not applicable).
	Node int
	// Detail is a short human-readable description.
	Detail string
}

// String renders the event as one timeline line: time, kernel, kind, detail.
func (e Event) String() string {
	return fmt.Sprintf("%12v  k%-2d %-12s %s", e.At, e.Node, e.Kind, e.Detail)
}

// Buffer is a fixed-capacity ring of events; once full, the oldest events
// are overwritten and counted as dropped.
type Buffer struct {
	events  []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewBuffer returns a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{events: make([]Event, 0, capacity)}
}

// Add records one event. The ring never reallocates: until capacity it
// appends into the preallocated array, after that it overwrites in place.
func (b *Buffer) Add(ev Event) {
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, ev)
		return
	}
	b.events[b.next] = ev
	b.next = (b.next + 1) % cap(b.events)
	b.wrapped = true
	b.dropped++
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Dropped returns how many events were overwritten.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if !b.wrapped {
		return append([]Event(nil), b.events...)
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Filter returns the retained events whose Kind has the given prefix, in
// chronological order. It walks the ring in place — counting matches first,
// then filling an exactly-sized slice — so the only allocation is the
// result itself, no matter how big the buffer is or how often the growth
// pattern of an append loop would have reallocated.
func (b *Buffer) Filter(kindPrefix string) []Event {
	n := 0
	b.scan(func(ev *Event) {
		if strings.HasPrefix(ev.Kind, kindPrefix) {
			n++
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	b.scan(func(ev *Event) {
		if len(out) < n && strings.HasPrefix(ev.Kind, kindPrefix) {
			out = append(out, *ev)
		}
	})
	return out
}

// scan visits the retained events in chronological order without copying
// the ring.
func (b *Buffer) scan(fn func(*Event)) {
	if b.wrapped {
		for i := b.next; i < len(b.events); i++ {
			fn(&b.events[i])
		}
		for i := 0; i < b.next; i++ {
			fn(&b.events[i])
		}
		return
	}
	for i := range b.events {
		fn(&b.events[i])
	}
}

// Dump writes all retained events, one per line.
func (b *Buffer) Dump(w io.Writer) error {
	for _, ev := range b.Events() {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	if b.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", b.dropped); err != nil {
			return err
		}
	}
	return nil
}
