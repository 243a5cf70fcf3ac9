package node

import (
	"testing"

	"muzha/internal/mac"
	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
	"muzha/internal/trace"
)

// buildTracedChain assembles a chain whose nodes all record into one
// shared trace buffer.
func buildTracedChain(t *testing.T, seed int64, hops int, buf *trace.Buffer) (*sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(seed)
	ch, err := phy.NewChannel(s, phy.DefaultConfig())
	cd := mac.NewCountdowns()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Chain(hops)
	if err != nil {
		t.Fatal(err)
	}
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.Trace = buf
	nodes := make([]*Node, tp.N())
	for i, pos := range tp.Positions {
		n, err := New(s, ch, cd, pos, packet.NodeID(i), &ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return s, nodes
}

// TestPacketConservation drives traffic over a chain and checks, from the
// packet trace, that the network never conjures packets out of thin air:
// every transport-layer receive corresponds to a unique originated send,
// and every packet is either delivered, dropped with a reason, or still
// in flight at the end.
func TestPacketConservation(t *testing.T) {
	buf := trace.NewBuffer(0)
	s, nodes := buildTracedChain(t, 1, 4, buf)
	sink := &recorder{flow: 1}
	if err := nodes[4].Attach(sink); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(sim.Time(i)*20*sim.Millisecond, func() {
			nodes[0].Send(seg(1, 4, int64(i)*1460))
		})
	}
	s.Run(20 * sim.Second)

	sent := make(map[uint64]bool)
	recvCount := make(map[uint64]int)
	for _, e := range buf.Events() {
		switch e.Op {
		case trace.OpSend:
			if sent[e.UID] {
				t.Fatalf("UID %d originated twice", e.UID)
			}
			sent[e.UID] = true
		case trace.OpRecv:
			recvCount[e.UID]++
		case trace.OpDrop:
			if e.Reason == "" {
				t.Fatalf("drop without reason: %+v", e)
			}
		}
	}
	for uid, c := range recvCount {
		if !sent[uid] {
			t.Fatalf("UID %d received but never sent", uid)
		}
		if c > 1 {
			t.Fatalf("UID %d delivered %d times", uid, c)
		}
	}
	if len(sink.got) != n {
		t.Fatalf("sink got %d/%d segments", len(sink.got), n)
	}
	if got := buf.Count(trace.OpRecv); got != n {
		t.Fatalf("trace receives = %d, want %d", got, n)
	}
}

// TestForwardEventsMatchPath checks that each delivered packet was
// forwarded exactly hops-1 times (once per intermediate node) on a
// loss-free chain.
func TestForwardEventsMatchPath(t *testing.T) {
	buf := trace.NewBuffer(0)
	s, nodes := buildTracedChain(t, 2, 3, buf)
	sink := &recorder{flow: 1}
	if err := nodes[3].Attach(sink); err != nil {
		t.Fatal(err)
	}
	nodes[0].Send(seg(1, 3, 0))
	s.Run(5 * sim.Second)

	if len(sink.got) != 1 {
		t.Fatal("segment not delivered")
	}
	uid := sink.got[0].UID
	fwd := buf.Filter(func(e trace.Event) bool {
		return e.Op == trace.OpForward && e.UID == uid
	})
	if len(fwd) != 2 {
		t.Fatalf("forward events = %d, want 2 (nodes 1 and 2)", len(fwd))
	}
	seen := map[packet.NodeID]bool{}
	for _, e := range fwd {
		seen[e.Node] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("forwarders = %v, want nodes 1 and 2", seen)
	}
}

// TestDropsAreAccounted floods a tiny queue and checks that every queue
// drop appears in the trace with the right reason and node.
func TestDropsAreAccounted(t *testing.T) {
	buf := trace.NewBuffer(0)
	s := sim.New(3)
	ch, err := phy.NewChannel(s, phy.DefaultConfig())
	cd := mac.NewCountdowns()
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := topo.Chain(2)
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.Trace = buf
	cfg.QueueLimit = 4
	nodes := make([]*Node, tp.N())
	for i, pos := range tp.Positions {
		nodes[i], err = New(s, ch, cd, pos, packet.NodeID(i), &ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		nodes[0].Send(seg(1, 2, int64(i)*1460))
	}
	s.Run(10 * sim.Second)

	qdropEvents := buf.Filter(func(e trace.Event) bool {
		return e.Op == trace.OpDrop && e.Reason == "queue overflow"
	})
	var qdropStats uint64
	for _, n := range nodes {
		qdropStats += n.Stats().QueueDrops
	}
	if uint64(len(qdropEvents)) != qdropStats {
		t.Fatalf("trace queue drops (%d) != stats (%d)", len(qdropEvents), qdropStats)
	}
	if qdropStats == 0 {
		t.Fatal("burst did not overflow the tiny queue")
	}
}

// TestResidualLossAccounting cross-checks the residual-loss counter
// against the trace.
func TestResidualLossAccounting(t *testing.T) {
	buf := trace.NewBuffer(0)
	s := sim.New(5)
	ch, _ := phy.NewChannel(s, phy.DefaultConfig())
	cd := mac.NewCountdowns()
	tp, _ := topo.Chain(2)
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.Trace = buf
	cfg.ResidualLossRate = 0.2
	nodes := make([]*Node, tp.N())
	for i, pos := range tp.Positions {
		nodes[i], _ = New(s, ch, cd, pos, packet.NodeID(i), &ids, cfg)
	}
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(sim.Time(i)*20*sim.Millisecond, func() {
			nodes[0].Send(seg(1, 2, int64(i)*1460))
		})
	}
	s.Run(10 * sim.Second)

	randomDrops := buf.Filter(func(e trace.Event) bool {
		return e.Op == trace.OpDrop && e.Reason == "random loss"
	})
	var statDrops uint64
	for _, n := range nodes {
		statDrops += n.Stats().RandomDrops
	}
	if uint64(len(randomDrops)) != statDrops {
		t.Fatalf("trace random drops (%d) != stats (%d)", len(randomDrops), statDrops)
	}
	if statDrops == 0 {
		t.Fatal("20%% residual loss dropped nothing")
	}
	if len(sink.got)+int(statDrops) < 30 {
		t.Fatalf("deliveries (%d) + drops (%d) implausibly low", len(sink.got), statDrops)
	}
}
