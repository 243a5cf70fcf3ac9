package phy

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// Medium microbenchmarks: saturated Transmit fan-out through the
// neighbor cache, static and with mobility-driven cache invalidation,
// isolated from MAC/TCP behaviour (benchMAC does nothing). Both report
// events/s — engine events executed per wall-clock second — so the CI
// benchmark gate can compare them against BENCH_sim.json.

// benchMAC is a zero-cost MAC so the benchmark measures only the medium.
type benchMAC struct{}

func (benchMAC) OnCarrierBusy()                 {}
func (benchMAC) OnCarrierIdle()                 {}
func (benchMAC) OnReceive(*packet.Packet, bool) {}
func (benchMAC) OnTxDone(*packet.Packet)        {}

// benchChannel builds a rows x cols grid spaced 200 m apart: with the
// default 550 m carrier-sense range the centre radio fans every frame
// out to over a dozen neighbours.
func benchChannel(tb testing.TB, rows, cols int) (*sim.Simulator, *Channel, []*Radio) {
	tb.Helper()
	s := sim.New(1)
	ch, err := NewChannel(s, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	radios := make([]*Radio, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			radios = append(radios, ch.AddRadio(topo.Position{X: float64(c) * 200, Y: float64(r) * 200}, benchMAC{}))
		}
	}
	return s, ch, radios
}

// BenchmarkTransmitFanout measures a saturated static-topology transmit:
// one frame from the grid centre reaching every radio in carrier-sense
// range, events drained per iteration. The neighbor cache is built once.
func BenchmarkTransmitFanout(b *testing.B) {
	s, ch, radios := benchChannel(b, 5, 5)
	centre := radios[12]
	pkt := &packet.Packet{Kind: packet.KindData, Size: 1000}
	air := ch.TxTime(1000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centre.Transmit(pkt, air)
		s.RunAll()
	}
	b.ReportMetric(float64(s.EventsExecuted())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTransmitMobile is the same fan-out with the transmitter moved
// before every frame, forcing a grid re-bucket and an O(neighbors)
// neighbor-cache rebuild per transmission — the mobility worst case.
func BenchmarkTransmitMobile(b *testing.B) {
	s, ch, radios := benchChannel(b, 5, 5)
	centre := radios[12]
	pkt := &packet.Packet{Kind: packet.KindData, Size: 1000}
	air := ch.TxTime(1000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SetPosition(centre.ID(), topo.Position{X: 400 + float64(i%7)*25, Y: 400 + float64(i%5)*25})
		centre.Transmit(pkt, air)
		s.RunAll()
	}
	b.ReportMetric(float64(s.EventsExecuted())/b.Elapsed().Seconds(), "events/s")
}

// TestBenchChannelShape pins the fan-out the benchmarks exercise so a
// future topology tweak cannot silently turn them into no-ops.
func TestBenchChannelShape(t *testing.T) {
	_, _, radios := benchChannel(t, 5, 5)
	centre := radios[12]
	centre.rebuildNeighbors()
	if len(centre.nb) < 12 {
		t.Fatalf("centre radio has %d CS-range neighbours, want >= 12", len(centre.nb))
	}
	for i := 1; i < len(centre.nb); i++ {
		if centre.nb[i-1].r.id >= centre.nb[i].r.id {
			t.Fatalf("neighbor cache not sorted by id at %d: %v >= %v",
				i, centre.nb[i-1].r.id, centre.nb[i].r.id)
		}
	}
}

// TestTransmitIsOneHeapNode pins the sorted-run scheduling of a frame:
// its 2k+1 events (start and end at each of k neighbours, then tx-done)
// are all pending but occupy a single heap node, and they drain to an
// empty queue.
func TestTransmitIsOneHeapNode(t *testing.T) {
	s, ch, radios := benchChannel(t, 5, 5)
	centre := radios[12]
	centre.Transmit(&packet.Packet{Kind: packet.KindData, Size: 1000}, ch.TxTime(1000, false))
	k := len(centre.nb)
	if s.QueueLen() != 1 || s.Pending() != 2*k+1 {
		t.Fatalf("QueueLen, Pending = %d, %d; want 1, %d", s.QueueLen(), s.Pending(), 2*k+1)
	}
	s.RunAll()
	if s.EventsExecuted() != uint64(2*k+1) || s.Pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("after drain: events %d, Pending %d, QueueLen %d", s.EventsExecuted(), s.Pending(), s.QueueLen())
	}
}
