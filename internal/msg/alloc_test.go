package msg

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// TestMessageResetZeroesEveryField proves by reflection that Message.reset
// clears every field — exported and unexported alike — so a future field
// addition cannot leak one pooled message's state into its next tenant. It
// mirrors the AllTypes exhaustiveness pattern: the field list is discovered,
// not enumerated by hand.
func TestMessageResetZeroesEveryField(t *testing.T) {
	m := &Message{}
	v := reflect.ValueOf(m).Elem()
	ty := v.Type()
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		// Unexported fields need the unsafe.Pointer detour to be settable.
		fv := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		if err := setNonZero(fv); err != "" {
			t.Fatalf("field %s: %s", f.Name, err)
		}
		if fv.IsZero() {
			t.Fatalf("field %s: failed to make it non-zero before reset", f.Name)
		}
	}
	m.reset()
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		fv := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		if !fv.IsZero() {
			t.Errorf("field %s survived reset with value %v; pooled reuse would leak it", f.Name, fv)
		}
	}
}

// setNonZero writes a non-zero value of the field's kind; returns a
// diagnostic for kinds it does not know how to populate (add the kind here
// when Message grows such a field).
func setNonZero(fv reflect.Value) string {
	switch fv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fv.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fv.SetUint(7)
	case reflect.Bool:
		fv.SetBool(true)
	case reflect.String:
		fv.SetString("x")
	case reflect.Interface:
		fv.Set(reflect.ValueOf(any("payload")))
	case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		fv.Set(reflect.New(fv.Type()).Elem()) // stays zero: unsupported
		return "pointer-like field kinds need an explicit non-zero sample in setNonZero"
	default:
		return "unknown kind " + fv.Kind().String()
	}
	return ""
}

// allocsPerMessage runs a one-message-per-tick send→deliver→handle loop and
// returns the average allocations per processed message once the fabric is
// warm. A pinger daemon fires every tick; each RunFor window covers exactly
// n ticks. Every ping is stamped as origin-role traffic for kernel 1, as the
// vm and threadgroup services stamp theirs; the stamp is a no-op until the
// failover plane is attached. The pinger rewrites one Message in place,
// which is safe only while each ping is delivered within its tick. A fabric
// that drops pings may still hold one for link-layer redelivery, so fresh
// gives every ping its own Message, at one allocation per message.
func allocsPerMessage(t *testing.T, f *Fabric, e sim.Engine, fresh bool) float64 {
	t.Helper()
	const tick = 10 * time.Microsecond
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	e.SpawnDaemon("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		m := &Message{}
		for {
			if fresh {
				m = &Message{}
			}
			*m = Message{Type: TypePing, To: 1, Size: 64}
			f.StampOrigin(m, 1)
			ep.Send(p, m)
			p.Sleep(tick)
		}
	})
	// Warm-up: grow rings, queues, free lists, proc stacks, dedup tables.
	if err := e.RunFor(100 * tick); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	const perRun = 8
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(perRun * tick); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	return allocs / perRun
}

// TestSendDeliverSteadyStateAllocs pins the reliable fabric's send→deliver
// path at a fixed small constant per message. The remaining allocations are
// the modeled per-message work: the handler process the dispatcher spawns —
// its Proc record, its pre-bound dispatch closure, the handler closure and
// spawnTracked's wrapper, plus amortised growth of the engine's and the
// endpoint's process tables (the body runs on a pooled carrier, so no
// goroutine or channel is made). Everything else — events, wire entries,
// ring slots, span names — is recycled.
func TestSendDeliverSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	got := allocsPerMessage(t, f, e, false)
	// Measured: 4.375 allocations per message. The bound leaves less than
	// one allocation of headroom, so one more per message fails.
	if got > 5 {
		t.Fatalf("send→deliver steady state allocates %.3f allocs/message, want <= 5", got)
	}
}

// TestSendDeliverSteadyStateAllocsFaultsOn repeats the pin with the fault
// plane attached (empty plan: hardened transport, no injected faults). The
// one allocation over the reliable path is the dedup table entry per
// request and its map growth.
func TestSendDeliverSteadyStateAllocsFaultsOn(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFaults(&faultinj.Plan{Seed: 1}, FaultConfig{}, FaultHooks{})
	got := allocsPerMessage(t, f, e, false)
	// Measured: 5.375 allocations per message.
	if got > 6 {
		t.Fatalf("fault-mode send→deliver allocates %.3f allocs/message, want <= 6", got)
	}
}

// TestSendDeliverSteadyStateAllocsPlanes repeats the pin with each opt-in
// plane attached, and with all three at once. The flow plane adds a credit
// account lookup, acquire and release per message; the failover plane adds
// the origin stamp and the stale-origin fence; the lossy plan adds
// dup/drop decisions, per-link fault counters, dedup hits and link-layer
// redelivery. Each bound is the measured value plus less than one
// allocation, so one more allocation per message fails.
func TestSendDeliverSteadyStateAllocsPlanes(t *testing.T) {
	lossy := func(f *Fabric) {
		plan := &faultinj.Plan{Seed: 1, Rules: []faultinj.Rule{{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(TypePing), DropP: 0.25, DupP: 0.25,
		}}}
		f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
	}
	flow := func(f *Fabric) { f.EnableFlow(FlowConfig{}) }
	failover := func(f *Fabric) { f.EnableFailover() }
	for _, tc := range []struct {
		name   string
		attach []func(*Fabric)
		fresh  bool
		max    float64
	}{
		{"flow", []func(*Fabric){flow}, false, 5},                // measured 4.375
		{"failover", []func(*Fabric){failover}, false, 5},        // measured 4.375
		{"lossy", []func(*Fabric){lossy}, true, 8},               // measured 7.5
		{"all", []func(*Fabric){lossy, flow, failover}, true, 8}, // measured 7.5
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			f := testFabric(t, e)
			for _, attach := range tc.attach {
				attach(f)
			}
			got := allocsPerMessage(t, f, e, tc.fresh)
			if got > tc.max {
				t.Fatalf("%s send→deliver allocates %.3f allocs/message, want <= %v", tc.name, got, tc.max)
			}
		})
	}
}

// TestHeartbeatSteadyStateZeroAllocs pins the failure detector's probe
// traffic. With kernel 3 dead and its heal still pending, the failure
// window stays open and the survivors heartbeat each other. Each probe
// takes a pooled Message, crosses the wire and is released back to the
// pool at delivery, so a window of probes must not allocate.
func TestHeartbeatSteadyStateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 3, At: time.Millisecond}},
		Heals:   []faultinj.NodeHeal{{Node: 3, At: time.Hour}},
	}
	cfg := DefaultFaultConfig()
	f.EnableFaults(plan, cfg, FaultHooks{})
	// Warm-up: past the crash and every survivor's verdict on kernel 3.
	if err := e.RunFor(time.Millisecond + 2*cfg.DeadAfter); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	recv := f.metrics.Counter("msg.heartbeat.recv")
	before := recv.Value()
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.RunFor(cfg.HeartbeatEvery); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if recv.Value() == before {
		t.Fatal("no heartbeats delivered in the measured windows")
	}
	if allocs != 0 {
		t.Fatalf("heartbeat steady state allocates %v allocs per probe period, want 0", allocs)
	}
}

// TestCallSteadyStateAllocs pins the reliable RPC round trip: a caller
// issuing one Call per tick against a handler that replies measures ~9.6
// allocations per call: the request and reply messages, the pending-call
// record, the handler process spawned for the request, and table growth.
// Recording the caller's rpc-reply wait adds nothing: its label is rendered
// only when a deadlock report reads it (formatting it on every wait cost
// ~1.7 more).
func TestCallSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	const tick = 10 * time.Microsecond
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return &Message{Size: 64} })
	e.SpawnDaemon("caller", func(p *sim.Proc) {
		for {
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64}); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			p.Sleep(tick)
		}
	})
	if err := e.RunFor(100 * tick); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	calls := f.metrics.Counter("msg.rpc")
	before := calls.Value()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if err := e.RunFor(8 * tick); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	// AllocsPerRun makes one extra warm-up call of the function.
	perCall := allocs * (runs + 1) / float64(calls.Value()-before)
	// Measured: 9.61 allocations per call.
	if perCall > 10 {
		t.Fatalf("reliable Call allocates %.1f allocs/call, want <= 10", perCall)
	}
}

// TestWireRingReusesCapacity locks in the head-compaction behavior: a busy
// pair's ring must not grow without bound and must recycle its entry
// objects.
func TestWireRingReusesCapacity(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 64})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w := f.wires[wireKey{from: 0, to: 1}]
	if w == nil {
		t.Fatal("no wire for the pair")
	}
	if w.head != 0 || len(w.entries) != 0 {
		t.Fatalf("drained wire not compacted: head=%d len=%d", w.head, len(w.entries))
	}
	if cap(w.entries) > 64 {
		t.Fatalf("ring capacity grew to %d for strictly serial sends; compaction is not reusing the array", cap(w.entries))
	}
	if len(f.entryFree) == 0 {
		t.Fatal("wire entries were not recycled to the free list")
	}
}

// TestHeartbeatPoolRecycles drives a crash-and-heal window (which starts
// the survivors' heartbeat traffic) and verifies delivered heartbeats cycle
// through the fabric's message pool rather than piling up as garbage: once
// every kernel is live again, a sweep's final probe is released at delivery
// and sits in the pool. Copies sent into the dead window simply fall out of
// the pool — that loss is bounded by the window, not the run length.
func TestHeartbeatPoolRecycles(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 3, At: time.Millisecond}},
		Heals:   []faultinj.NodeHeal{{Node: 3, At: 4 * time.Millisecond}},
	}
	f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.metrics.Counter("msg.heartbeat.recv").Value() == 0 {
		t.Fatal("no heartbeats delivered; the scenario did not exercise the pool")
	}
	if len(f.msgFree) == 0 {
		t.Fatal("delivered heartbeats were not recycled to the message pool")
	}
}
