package mac

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// stubUpper is a scripted network layer: a FIFO of frames to send plus
// recorders for every upcall.
type stubUpper struct {
	queue     []*packet.Packet
	received  []*packet.Packet
	succeeded []*packet.Packet
	failed    []*packet.Packet
}

func (u *stubUpper) OnMACReceive(p *packet.Packet) { u.received = append(u.received, p) }
func (u *stubUpper) OnTxSuccess(p *packet.Packet)  { u.succeeded = append(u.succeeded, p) }
func (u *stubUpper) OnTxFail(p *packet.Packet)     { u.failed = append(u.failed, p) }
func (u *stubUpper) NextFrame() *packet.Packet {
	if len(u.queue) == 0 {
		return nil
	}
	p := u.queue[0]
	u.queue = u.queue[1:]
	return p
}

type testNode struct {
	mac   *DCF
	upper *stubUpper
	radio *phy.Radio
	ch    *phy.Channel
}

// buildNodes wires n MACs to a fresh channel at the given positions.
func buildNodes(t *testing.T, seed int64, cfg Config, positions []topo.Position) (*sim.Simulator, []*testNode) {
	return buildNodesPhy(t, seed, cfg, phy.DefaultConfig(), positions)
}

// buildNodesPhy is buildNodes with a custom channel configuration.
func buildNodesPhy(t *testing.T, seed int64, cfg Config, phyCfg phy.Config, positions []topo.Position) (*sim.Simulator, []*testNode) {
	t.Helper()
	s := sim.New(seed)
	ch, err := phy.NewChannel(s, phyCfg)
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCountdowns()
	nodes := make([]*testNode, len(positions))
	for i, pos := range positions {
		up := &stubUpper{}
		n := &testNode{upper: up, ch: ch}
		radioHolder := &deferredMAC{}
		n.radio = ch.AddRadio(pos, radioHolder)
		m, err := New(s, n.radio, packet.NodeID(i), up, cfg, cd)
		if err != nil {
			t.Fatal(err)
		}
		radioHolder.m = m
		n.mac = m
		nodes[i] = n
	}
	return s, nodes
}

// deferredMAC lets us create the radio before the DCF that drives it.
type deferredMAC struct{ m *DCF }

func (d *deferredMAC) OnCarrierBusy()                      { d.m.OnCarrierBusy() }
func (d *deferredMAC) OnCarrierIdle()                      { d.m.OnCarrierIdle() }
func (d *deferredMAC) OnReceive(p *packet.Packet, ok bool) { d.m.OnReceive(p, ok) }
func (d *deferredMAC) OnTxDone(p *packet.Packet)           { d.m.OnTxDone(p) }

var uidGen packet.IDGen

func frameTo(dst packet.NodeID, size int) *packet.Packet {
	return &packet.Packet{
		UID:    uidGen.Next(),
		Kind:   packet.KindData,
		Size:   size,
		MACDst: dst,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SlotTime = 0 },
		func(c *Config) { c.SIFS = 0 },
		func(c *Config) { c.DIFS = c.SIFS },
		func(c *Config) { c.CWMin = 0 },
		func(c *Config) { c.CWMax = c.CWMin - 1 },
		func(c *Config) { c.ShortRetryLimit = 0 },
		func(c *Config) { c.LongRetryLimit = 0 },
		func(c *Config) { c.RTSThreshold = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastDelivery(t *testing.T) {
	s, nodes := buildNodes(t, 1, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 || nodes[1].upper.received[0] != pkt {
		t.Fatalf("receiver got %d frames", len(nodes[1].upper.received))
	}
	if len(nodes[0].upper.succeeded) != 1 {
		t.Fatalf("sender success upcalls = %d, want 1", len(nodes[0].upper.succeeded))
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != 1 || st.DataSent != 1 {
		t.Fatalf("sender stats = %+v, want 1 RTS and 1 data frame", st)
	}
	rst := nodes[1].mac.Stats()
	if rst.CTSSent != 1 || rst.ACKSent != 1 {
		t.Fatalf("receiver stats = %+v, want 1 CTS and 1 ACK", rst)
	}
	if !nodes[0].mac.Idle() {
		t.Fatal("sender MAC should be idle after delivery")
	}
}

func TestUnicastWithoutRTS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThreshold = 1 << 20 // never use RTS
	s, nodes := buildNodes(t, 1, cfg, []topo.Position{{X: 0}, {X: 200}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 {
		t.Fatal("frame not delivered without RTS")
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != 0 {
		t.Fatalf("RTS sent despite high threshold: %+v", st)
	}
	if rst := nodes[1].mac.Stats(); rst.ACKSent != 1 || rst.CTSSent != 0 {
		t.Fatalf("receiver stats = %+v", rst)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s, nodes := buildNodes(t, 1, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 200}, {X: -200}, {X: 800}})
	pkt := frameTo(packet.Broadcast, 64)
	pkt.Kind = packet.KindRouting
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 || len(nodes[2].upper.received) != 1 {
		t.Fatal("broadcast not delivered to in-range nodes")
	}
	if len(nodes[3].upper.received) != 0 {
		t.Fatal("broadcast delivered beyond range")
	}
	if len(nodes[0].upper.succeeded) != 1 {
		t.Fatal("broadcast should report success after transmission")
	}
	// No control frames for broadcast.
	if st := nodes[1].mac.Stats(); st.CTSSent != 0 || st.ACKSent != 0 {
		t.Fatalf("control frames sent for broadcast: %+v", st)
	}
}

func TestRetryExhaustionReportsLinkFailure(t *testing.T) {
	// Destination far out of range: every RTS goes unanswered.
	s, nodes := buildNodes(t, 1, DefaultConfig(), []topo.Position{{X: 0}, {X: 5000}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(5 * sim.Second)

	if len(nodes[0].upper.failed) != 1 || nodes[0].upper.failed[0] != pkt {
		t.Fatalf("failed upcalls = %d, want 1", len(nodes[0].upper.failed))
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != uint64(DefaultConfig().ShortRetryLimit) {
		t.Fatalf("RTS attempts = %d, want %d", st.RTSSent, DefaultConfig().ShortRetryLimit)
	}
	if st.Drops != 1 {
		t.Fatalf("drops = %d, want 1", st.Drops)
	}
	if !nodes[0].mac.Idle() {
		t.Fatal("MAC should be idle after giving up")
	}
}

func TestQueueDrainsMultipleFrames(t *testing.T) {
	s, nodes := buildNodes(t, 2, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 20
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	s.Run(2 * sim.Second)

	if got := len(nodes[1].upper.received); got != n {
		t.Fatalf("delivered %d frames, want %d", got, n)
	}
	if got := len(nodes[0].upper.succeeded); got != n {
		t.Fatalf("success upcalls = %d, want %d", got, n)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	s, nodes := buildNodes(t, 3, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 10
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1000))
		nodes[1].upper.queue = append(nodes[1].upper.queue, frameTo(0, 1000))
	}
	nodes[0].mac.Kick()
	nodes[1].mac.Kick()
	s.Run(5 * sim.Second)

	if len(nodes[1].upper.received) != n || len(nodes[0].upper.received) != n {
		t.Fatalf("bidirectional delivery: a->b %d, b->a %d, want %d each",
			len(nodes[1].upper.received), len(nodes[0].upper.received), n)
	}
}

func TestHiddenTerminalsRecoverViaRTS(t *testing.T) {
	// Classic hidden-terminal: with carrier sense limited to the TX
	// range, 0 and 2 cannot hear each other and both send to 1 in the
	// middle. The CTS sets the other sender's NAV, so data frames are
	// protected; only short RTS frames collide and retries recover.
	phyCfg := phy.DefaultConfig()
	phyCfg.CSRange = 250
	s, nodes := buildNodesPhy(t, 4, DefaultConfig(), phyCfg,
		[]topo.Position{{X: 0}, {X: 250}, {X: 500}})
	const n = 15
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(10 * sim.Second)

	if got := len(nodes[1].upper.received); got != 2*n {
		t.Fatalf("delivered %d frames under hidden terminals, want %d", got, 2*n)
	}
}

func TestChainInterferenceCausesContentionLoss(t *testing.T) {
	// The paper's contention-loss mechanism: with the NS-2 550 m CS
	// range, a transmitter two hops away (750 m) is inaudible to the
	// sender but interferes at its receiver (500 m away). Under
	// saturation some frames exhaust their retries — these MAC drops
	// are what AODV interprets as link failures. The MAC must stay
	// live (conservation: every frame either succeeds or fails) and
	// still deliver the majority.
	s, nodes := buildNodes(t, 12, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 250}, {X: 750}, {X: 1000}})
	const n = 25
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(3, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(30 * sim.Second)

	for _, i := range []int{0, 2} {
		done := len(nodes[i].upper.succeeded) + len(nodes[i].upper.failed)
		if done != n {
			t.Fatalf("sender %d: %d success + %d fail != %d sent",
				i, len(nodes[i].upper.succeeded), len(nodes[i].upper.failed), n)
		}
	}
	delivered := len(nodes[1].upper.received) + len(nodes[3].upper.received)
	if delivered < 2*n*6/10 {
		t.Fatalf("only %d/%d frames survived chain interference", delivered, 2*n)
	}
}

func TestContendersShareChannelWithoutLoss(t *testing.T) {
	// Two senders in range of each other and of the receiver: carrier
	// sensing plus backoff must deliver all frames.
	s, nodes := buildNodes(t, 5, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 125}, {X: 250}})
	const n = 25
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(10 * sim.Second)

	if got := len(nodes[1].upper.received); got != 2*n {
		t.Fatalf("delivered %d/%d frames between two contenders", got, 2*n)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Drop MAC ACKs at random via high control-frame-unfriendly BER is
	// hard to target; instead simulate an ACK loss by a one-off
	// interference burst is fragile. Simplest deterministic approach:
	// deliver the same frame UID twice through the PHY by retrying at
	// the sender with a forced timeout. We emulate the effect directly:
	// feed OnReceive the same data frame twice.
	s, nodes := buildNodes(t, 6, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	_ = s
	pkt := frameTo(1, 500)
	pkt.MACSrc = 0
	nodes[1].mac.OnReceive(pkt, true)
	nodes[1].mac.OnReceive(pkt, true)

	if len(nodes[1].upper.received) != 1 {
		t.Fatalf("duplicate frame delivered %d times", len(nodes[1].upper.received))
	}
	if st := nodes[1].mac.Stats(); st.Duplicates != 1 {
		t.Fatalf("duplicate counter = %d, want 1", st.Duplicates)
	}
}

func TestNAVBlocksThirdParty(t *testing.T) {
	// Node 2 overhears node 0's RTS to node 1 and must defer its own
	// transmission until the exchange completes.
	s, nodes := buildNodes(t, 7, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 200}, {X: 120}})
	big := frameTo(1, 1460)
	nodes[0].upper.queue = append(nodes[0].upper.queue, big)
	nodes[0].mac.Kick()

	// Node 2 wants the channel shortly after node 0 starts contending.
	s.Schedule(100*sim.Microsecond, func() {
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 100))
		nodes[2].mac.Kick()
	})
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(nodes[1].upper.received))
	}
	// Node 2 overheard node 0's RTS (or the receiver's CTS) at some
	// point and must have recorded a NAV reservation.
	if nodes[2].mac.navUntil == 0 {
		t.Fatal("node 2 never set its NAV from the overheard exchange")
	}
}

func TestEIFSAfterCorruptedFrame(t *testing.T) {
	s, nodes := buildNodes(t, 8, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	m := nodes[0].mac
	m.OnReceive(&packet.Packet{UID: 999, Kind: packet.KindData, MACDst: 5}, false)
	if !m.useEIFS {
		t.Fatal("corrupted reception did not arm EIFS")
	}
	// A subsequent good frame clears the EIFS condition.
	m.OnReceive(&packet.Packet{UID: 1000, Kind: packet.KindData, MACDst: 5, MACDur: 0}, true)
	if m.useEIFS {
		t.Fatal("good reception did not clear EIFS")
	}
	_ = s
}

func TestKickWhileBusyIsIgnored(t *testing.T) {
	s, nodes := buildNodes(t, 9, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1000), frameTo(1, 1000))
	nodes[0].mac.Kick()
	nodes[0].mac.Kick() // second kick must not double-start
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 2 {
		t.Fatalf("delivered %d, want 2", len(nodes[1].upper.received))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// Five stations all in range of a central receiver, saturated.
	pos := []topo.Position{
		{X: 0},
		{X: 100}, {X: -100}, {X: 0, Y: 100}, {X: 0, Y: -100}, {X: 70, Y: 70},
	}
	s, nodes := buildNodes(t, 10, DefaultConfig(), pos)
	const per = 8
	for i := 1; i <= 5; i++ {
		for j := 0; j < per; j++ {
			nodes[i].upper.queue = append(nodes[i].upper.queue, frameTo(0, 1000))
		}
		nodes[i].mac.Kick()
	}
	s.Run(20 * sim.Second)

	if got := len(nodes[0].upper.received); got != 5*per {
		t.Fatalf("delivered %d/%d frames with 5 contenders", got, 5*per)
	}
}

func TestThroughputUpperBoundSingleHop(t *testing.T) {
	// Sanity-check DCF efficiency: 1460-byte frames over one hop at
	// 2 Mbps with RTS/CTS should land in the 1.0-1.8 Mbps range.
	s, nodes := buildNodes(t, 11, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 200
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460+40))
	}
	nodes[0].mac.Kick()
	end := s.RunAll()

	if got := len(nodes[1].upper.received); got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
	bits := float64(n * 1500 * 8)
	mbps := bits / end.Seconds() / 1e6
	if mbps < 1.0 || mbps > 1.9 {
		t.Fatalf("single-hop goodput = %.2f Mbps, outside DCF plausibility [1.0, 1.9]", mbps)
	}
}

func TestUtilizationTracksBusyFraction(t *testing.T) {
	s, nodes := buildNodes(t, 20, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	// Saturate: many back-to-back frames. The estimator folds lazily, so
	// poll it at the cadence the network layer does (per forwarded
	// packet, here every window).
	for i := 0; i < 400; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	var busy float64
	var tick func()
	tick = func() {
		busy = nodes[0].mac.Utilization()
		nodes[1].mac.Utilization()
		s.Schedule(100*sim.Millisecond, tick)
	}
	s.Schedule(100*sim.Millisecond, tick)
	s.Run(2 * sim.Second)

	if busy < 0.5 {
		t.Fatalf("sender utilization = %.2f under saturation", busy)
	}
	if u := nodes[1].mac.Utilization(); u < 0.5 {
		t.Fatalf("receiver utilization = %.2f under saturation", u)
	}

	// After a long idle stretch (queue drained) the estimate decays.
	nodes[0].upper.queue = nil
	s.Run(12 * sim.Second)
	if u := nodes[0].mac.Utilization(); u > 0.3 {
		t.Fatalf("utilization did not decay after idle: %.2f", u)
	}
}

func TestUtilizationIdleIsZero(t *testing.T) {
	s, nodes := buildNodes(t, 21, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	s.Run(2 * sim.Second)
	if u := nodes[0].mac.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %.2f, want 0", u)
	}
}

// contendAt makes m contend for a broadcast frame from virtual time at,
// with exactly slots backoff slots (no random draw).
func contendAt(s *sim.Simulator, m *DCF, at sim.Time, slots int) {
	s.At(at, func() {
		m.cur = &packet.Packet{UID: uidGen.Next(), Kind: packet.KindData, Size: 100, MACDst: packet.Broadcast}
		m.st = stateContend
		m.backoffSlots = slots
		m.resume()
	})
}

// txLog records the radio ID and time of every transmission on the
// channel the nodes share.
type txLog struct {
	ids   []int
	times []sim.Time
}

func logTx(s *sim.Simulator, n *testNode) *txLog {
	l := &txLog{}
	n.ch.SetTxHook(func(radio int, _ *packet.Packet) {
		l.ids = append(l.ids, radio)
		l.times = append(l.times, s.Now())
	})
	return l
}

// TestCountdownPauseCharging checks what a pause charges a running
// countdown. The countdown starts at t0 = DIFS with 10 slots; each case
// pauses it once, at a slot boundary or mid-slot, before the countdown
// events queued for that instant.
func TestCountdownPauseCharging(t *testing.T) {
	cfg := DefaultConfig()
	slot := cfg.SlotTime
	t0 := cfg.DIFS
	cases := []struct {
		name  string
		at    sim.Time
		pause func(m *DCF)
		left  int
	}{
		{"carrier busy mid-slot", t0 + 3*slot + slot/2, (*DCF).OnCarrierBusy, 7},
		{"NAV mid-slot", t0 + 3*slot + slot/2, func(m *DCF) { m.setNAV(int64(sim.Millisecond)) }, 7},
		{"carrier busy on a boundary", t0 + 3*slot, (*DCF).OnCarrierBusy, 7},
		{"NAV on a boundary", t0 + 3*slot, func(m *DCF) { m.setNAV(int64(sim.Millisecond)) }, 8},
		{"response on a boundary", t0 + 3*slot, func(m *DCF) {
			m.scheduleResponse(&packet.Packet{Kind: packet.KindMACControl, Ctrl: packet.CtrlACK, Size: packet.MACACKSize, MACSrc: 0, MACDst: 1})
		}, 8},
		{"reset-style cancel on a boundary", t0 + 3*slot, (*DCF).cancelDefer, 8},
		{"carrier busy at t0", t0, (*DCF).OnCarrierBusy, 10},
		{"NAV on the expiry instant", t0 + 10*slot, func(m *DCF) { m.setNAV(int64(sim.Millisecond)) }, 1},
		{"NAV one slot before expiry", t0 + 9*slot, func(m *DCF) { m.setNAV(int64(sim.Millisecond)) }, 2},
		{"carrier busy one slot before expiry", t0 + 9*slot, (*DCF).OnCarrierBusy, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, nodes := buildNodes(t, 1, cfg, []topo.Position{{X: 0}, {X: 200}})
			m := nodes[0].mac
			var left int
			// Queued before the countdown starts, so at a shared instant it
			// runs ahead of every countdown event.
			s.At(tc.at, func() {
				tc.pause(m)
				left = m.backoffSlots
			})
			contendAt(s, m, 0, 10)
			log := logTx(s, nodes[0])
			s.Run(tc.at)
			if left != tc.left {
				t.Fatalf("%d slots left after the pause, want %d", left, tc.left)
			}
			if len(log.ids) != 0 {
				t.Fatalf("transmitted at %v despite the pause", log.times)
			}
		})
	}
}

// TestCountdownResumesWithRemainder: a countdown paused mid-slot resumes
// after DIFS with the remaining slots and transmits exactly when they
// run out.
func TestCountdownResumesWithRemainder(t *testing.T) {
	cfg := DefaultConfig()
	slot := cfg.SlotTime
	s, nodes := buildNodes(t, 1, cfg, []topo.Position{{X: 0}, {X: 200}})
	m := nodes[0].mac
	log := logTx(s, nodes[0])
	contendAt(s, m, 0, 10)
	// Countdown from t0 = DIFS; 3.5 slots in, the carrier goes busy (3
	// slots charged, 7 left) and comes back idle at 400 µs.
	s.At(cfg.DIFS+3*slot+slot/2, m.OnCarrierBusy)
	idle := 400 * sim.Microsecond
	s.At(idle, m.OnCarrierIdle)
	s.Run(sim.Millisecond)
	want := idle + cfg.DIFS + 7*slot
	if len(log.ids) != 1 || log.times[0] != want {
		t.Fatalf("transmissions at %v, want one at %v", log.times, want)
	}
	if got := s.EventsExecuted(); got > 12 {
		t.Fatalf("%d events for two countdown segments; the countdown must not tick per slot", got)
	}
}

// TestCountdownSameInstantOrder distils a tie from the saturated 4-hop
// chain: contenders whose countdowns expire at one instant transmit in
// the order the per-slot model gave them. There, every slot tick was
// queued one slot ahead by the previous tick, so at any instant a
// DIFS/EIFS expiry (queued a whole DIFS ahead) runs before every tick,
// and ticks of a newer countdown run before those of an older one.
// In every case below the countdowns all expire at 150 µs.
func TestCountdownSameInstantOrder(t *testing.T) {
	const us = sim.Microsecond
	type start struct {
		at    sim.Time // when the node starts contending; its countdown starts one DIFS later
		slots int
	}
	cases := []struct {
		name   string
		starts []start
		want   []int // transmitting nodes, in order
	}{
		// A counts 5 slots from 50 µs. D's DIFS ends at 130 µs, where the
		// per-slot model's DIFS expiry ran before A's tick and so queued
		// D's last tick first.
		{"DIFS expiry before an older countdown", []start{{0, 5}, {80 * us, 1}}, []int{1, 0}},
		// A and B count 5 slots from 50 µs (A's DIFS queued first); C
		// counts 3 from 90 µs. Newer first, then A and B in start order.
		{"newer countdown first, same start in start order", []start{{0, 5}, {0, 5}, {40 * us, 3}}, []int{2, 0, 1}},
		// As above, plus E counting 2 slots from 110 µs: requeueing the
		// older countdowns behind E must keep C ahead of A and B.
		{"three generations of countdowns", []start{{0, 5}, {0, 5}, {40 * us, 3}, {60 * us, 2}}, []int{3, 2, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pos := make([]topo.Position, len(tc.starts))
			for i := range pos {
				pos[i] = topo.Position{X: float64(100 * i)}
			}
			s, nodes := buildNodes(t, 1, DefaultConfig(), pos)
			log := logTx(s, nodes[0])
			for i, st := range tc.starts {
				contendAt(s, nodes[i].mac, st.at, st.slots)
			}
			s.Run(150 * us)
			if len(log.ids) != len(tc.want) {
				t.Fatalf("transmitters %v at %v, want %v", log.ids, log.times, tc.want)
			}
			for i := range tc.want {
				if log.ids[i] != tc.want[i] || log.times[i] != 150*us {
					t.Fatalf("transmitters %v at %v, want %v all at 150µs", log.ids, log.times, tc.want)
				}
			}
		})
	}
}
