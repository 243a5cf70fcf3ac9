// Package trace records packet-level events in the style of NS-2 trace
// files: one line per send/receive/forward/drop with virtual timestamp,
// node, and packet summary. Traces are how the original paper's figures
// were produced (NS-2 post-processing), and they make simulator behaviour
// auditable in tests.
package trace

import (
	"fmt"
	"io"
	"strings"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Op is the event kind.
type Op int

// Event kinds, mirroring NS-2's s/r/f/d/m markers.
const (
	// OpSend is a packet originated by a node's transport layer.
	OpSend Op = iota + 1
	// OpRecv is a packet delivered to a node's transport layer.
	OpRecv
	// OpForward is a packet relayed toward its next hop.
	OpForward
	// OpDrop is a packet discarded (queue overflow, TTL, no route,
	// random loss).
	OpDrop
	// OpMark is a packet congestion-marked by a router.
	OpMark
)

var opCodes = map[Op]string{
	OpSend:    "s",
	OpRecv:    "r",
	OpForward: "f",
	OpDrop:    "d",
	OpMark:    "m",
}

func (o Op) String() string {
	if s, ok := opCodes[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one recorded packet event.
type Event struct {
	T      sim.Time
	Node   packet.NodeID
	Op     Op
	Reason string // drop reason, empty otherwise
	UID    uint64
	Kind   packet.Kind
	Src    packet.NodeID
	Dst    packet.NodeID
	Size   int
	Flow   int32 // 0 for non-TCP packets
	Seq    int64 // TCP sequence or ack number
	IsAck  bool
}

// Format renders the event as one NS-2-style line:
//
//	s 1.234567 _0_ data 42 f1 seq=1460 n0->n4 1500B
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %.6f _%d_ %s %d", e.Op, e.T.Seconds(), int32(e.Node), e.Kind, e.UID)
	if e.Flow != 0 {
		role, field := "seq", e.Seq
		if e.IsAck {
			role = "ack"
		}
		fmt.Fprintf(&b, " f%d %s=%d", e.Flow, role, field)
	}
	fmt.Fprintf(&b, " %v->%v %dB", e.Src, e.Dst, e.Size)
	if e.Reason != "" {
		fmt.Fprintf(&b, " [%s]", e.Reason)
	}
	return b.String()
}

// Recorder receives events. Implementations must be cheap; they run
// inline with the simulation.
type Recorder interface {
	Record(Event)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Event)

// Record implements Recorder.
func (f RecorderFunc) Record(e Event) { f(e) }

// FromPacket fills the packet-derived fields of an event.
func FromPacket(t sim.Time, node packet.NodeID, op Op, reason string, pkt *packet.Packet) Event {
	e := Event{
		T:      t,
		Node:   node,
		Op:     op,
		Reason: reason,
		UID:    pkt.UID,
		Kind:   pkt.Kind,
		Src:    pkt.Src,
		Dst:    pkt.Dst,
		Size:   pkt.Size,
	}
	if pkt.TCP != nil {
		e.Flow = pkt.TCP.FlowID
		e.IsAck = pkt.TCP.IsAck
		if pkt.TCP.IsAck {
			e.Seq = pkt.TCP.Ack
		} else {
			e.Seq = pkt.TCP.Seq
		}
	}
	return e
}

// Buffer is an in-memory recorder with query helpers, for tests and
// programmatic analysis.
type Buffer struct {
	events []Event
	limit  int
}

// NewBuffer returns a buffer retaining at most limit events (0 =
// unbounded).
func NewBuffer(limit int) *Buffer { return &Buffer{limit: limit} }

// Record implements Recorder.
func (b *Buffer) Record(e Event) {
	if b.limit > 0 && len(b.events) >= b.limit {
		return
	}
	b.events = append(b.events, e)
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns a copy of the retained events.
func (b *Buffer) Events() []Event {
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Filter returns the events matching pred.
func (b *Buffer) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range b.events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of events with the given op.
func (b *Buffer) Count(op Op) int {
	n := 0
	for _, e := range b.events {
		if e.Op == op {
			n++
		}
	}
	return n
}

var _ Recorder = (*Buffer)(nil)

// TextWriter streams formatted events to an io.Writer, one line each.
type TextWriter struct {
	w   io.Writer
	err error
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{w: w} }

// Record implements Recorder. The first write error latches and further
// events are discarded (the simulation must not fail on trace I/O).
func (t *TextWriter) Record(e Event) {
	if t.err != nil {
		return
	}
	_, t.err = io.WriteString(t.w, e.Format()+"\n")
}

// Err returns the first write error, if any.
func (t *TextWriter) Err() error { return t.err }

var _ Recorder = (*TextWriter)(nil)

// Multi fans events out to several recorders.
type Multi []Recorder

// Record implements Recorder.
func (m Multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

var _ Recorder = (Multi)(nil)
