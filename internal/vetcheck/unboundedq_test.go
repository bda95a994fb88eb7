package vetcheck

import "testing"

func TestUnboundedQPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/q.go": `package kernel

type mailbox struct {
	inbox  []int
	backlog []int
}

// HandleDeliver is handler-reachable (exported surface).
func HandleDeliver(mb *mailbox, m int) {
	mb.inbox = append(mb.inbox, m)
}

// Enqueue reaches the growth through a helper.
func Enqueue(mb *mailbox, m int) {
	push(mb, m)
}

func push(mb *mailbox, m int) {
	mb.backlog = append(mb.backlog, m)
}
`,
	}, UnboundedQ{})
	wantRules(t, got,
		"mb.inbox grows by append",
		"mb.backlog grows by append",
	)
}

func TestUnboundedQBareMarkerAndFarMarker(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/q.go": `package kernel

type mailbox struct{ inbox []int }

// HandleDeliver carries a marker with no reason, and the marker is also
// too far above the append (3 lines) to cover it.
func HandleDeliver(mb *mailbox, m int) {
	//popcornvet:bounded
	_ = m
	_ = m
	mb.inbox = append(mb.inbox, m)
}
`,
	}, UnboundedQ{})
	wantRules(t, got,
		"no reason",
		"mb.inbox grows by append",
	)
}

func TestUnboundedQLenGuardExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/q.go": `package kernel

type mailbox struct {
	inbox []int
	slow  []int
}

// HandleDeliver shows its bound in an enclosing condition.
func HandleDeliver(mb *mailbox, m int) {
	if len(mb.inbox) < 64 {
		mb.inbox = append(mb.inbox, m)
	}
}

// HandleSlow uses the early-reject guard idiom.
func HandleSlow(mb *mailbox, m int) {
	if len(mb.slow) >= 64 {
		return
	}
	mb.slow = append(mb.slow, m)
}
`,
	}, UnboundedQ{})
	wantRules(t, got)
}

func TestUnboundedQMarkerAndLocalsExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/q.go": `package kernel

type mailbox struct {
	inbox []int
	ack   []int
}

// HandleDeliver justifies the growth with a stacked marker, the way the
// fabric's delivery queues do (bounded line, then an allow, then the
// append).
func HandleDeliver(mb *mailbox, m int) {
	//popcornvet:bounded sender credits cap occupancy at CreditsPerLink per link
	//popcornvet:allow kernlocal the mailbox is this kernel's own
	mb.inbox = append(mb.inbox, m)
}

// HandleAck documents the bound at the declaration.
//
//popcornvet:bounded ack traffic is one entry per outstanding RPC
func HandleAck(mb *mailbox, m int) {
	mb.ack = append(mb.ack, m)
}

// Collect assembles a local slice: not persistent state, not flagged. The
// copy-from-another-field shape is growth of a snapshot, also exempt.
func Collect(mb *mailbox) []int {
	var out []int
	for _, m := range mb.inbox {
		out = append(out, m)
	}
	return out
}
`,
	}, UnboundedQ{})
	wantRules(t, got)
}

func TestUnboundedQNonKernelSideExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/bench/q.go": `package bench

type recorder struct{ samples []int }

func Record(r *recorder, v int) {
	r.samples = append(r.samples, v)
}
`,
	}, UnboundedQ{})
	wantRules(t, got)
}
