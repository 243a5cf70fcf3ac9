package topo

import (
	"fmt"
	"math/rand"

	"muzha/internal/sim"
)

// PositionSetter is the part of the PHY layer a mobility model drives.
type PositionSetter interface {
	SetPosition(node int, pos Position)
}

// WaypointConfig parameterizes the random-waypoint mobility model. The
// thesis defers mobility to future work; this implements it so route
// failures caused by motion can be exercised.
type WaypointConfig struct {
	Width, Height    float64 // field bounds in metres
	MinSpeed         float64 // m/s, must be > 0
	MaxSpeed         float64 // m/s, >= MinSpeed
	Pause            sim.Time
	UpdateInterval   sim.Time // how often positions are pushed to the PHY
	MobileNodes      []int    // node IDs that move; others stay put
	InitialPositions []Position
}

// Waypoint runs a random-waypoint model on a simulator, pushing positions
// into a PositionSetter at a fixed cadence.
type Waypoint struct {
	cfg    WaypointConfig
	sim    *sim.Simulator
	rng    *rand.Rand
	target PositionSetter
	nodes  []waypointNode
}

type waypointNode struct {
	id        int
	pos       Position
	dest      Position
	speed     float64 // m/s; 0 while paused
	pausedTil sim.Time
}

// NewWaypoint validates the configuration and prepares the model. Call
// Start to begin motion.
func NewWaypoint(s *sim.Simulator, target PositionSetter, cfg WaypointConfig) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = 100 * sim.Millisecond
	}
	w := &Waypoint{cfg: cfg, sim: s, rng: s.Rand(), target: target}
	for _, id := range cfg.MobileNodes {
		w.nodes = append(w.nodes, waypointNode{id: id, pos: cfg.InitialPositions[id]})
	}
	return w, nil
}

// Validate reports what NewWaypoint would reject.
func (c WaypointConfig) Validate() error {
	return validateMotion("waypoint", c.Width, c.Height, c.MinSpeed, c.MaxSpeed, c.MobileNodes, len(c.InitialPositions))
}

// validateMotion checks what every mobility model needs: a field of
// positive area, speeds with 0 < min <= max, and mobile nodes that each
// have one of the n initial positions.
func validateMotion(model string, width, height, minSpeed, maxSpeed float64, mobile []int, n int) error {
	if width <= 0 || height <= 0 {
		return fmt.Errorf("topo: %s field must have positive area, got %gx%g", model, width, height)
	}
	if minSpeed <= 0 || maxSpeed < minSpeed {
		return fmt.Errorf("topo: %s speeds invalid: min=%g max=%g", model, minSpeed, maxSpeed)
	}
	for _, id := range mobile {
		if id < 0 || id >= n {
			return fmt.Errorf("topo: mobile node %d has no initial position", id)
		}
	}
	return nil
}

// Start picks first destinations and schedules periodic position updates
// until the simulation ends.
func (w *Waypoint) Start() {
	for i := range w.nodes {
		w.pickDestination(&w.nodes[i])
	}
	w.sim.Schedule(w.cfg.UpdateInterval, w.step)
}

func (w *Waypoint) step() {
	dt := w.cfg.UpdateInterval.Seconds()
	now := w.sim.Now()
	for i := range w.nodes {
		n := &w.nodes[i]
		if now < n.pausedTil {
			continue
		}
		remaining := Dist(n.pos, n.dest)
		travel := n.speed * dt
		if travel >= remaining {
			n.pos = n.dest
			n.pausedTil = now + w.cfg.Pause
			w.pickDestination(n)
		} else {
			frac := travel / remaining
			n.pos.X += (n.dest.X - n.pos.X) * frac
			n.pos.Y += (n.dest.Y - n.pos.Y) * frac
		}
		w.target.SetPosition(n.id, n.pos)
	}
	w.sim.Schedule(w.cfg.UpdateInterval, w.step)
}

func (w *Waypoint) pickDestination(n *waypointNode) {
	n.dest = Position{X: w.rng.Float64() * w.cfg.Width, Y: w.rng.Float64() * w.cfg.Height}
	n.speed = w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
}

// Positions returns the current position of every mobile node, keyed by
// node ID. Mostly for tests.
func (w *Waypoint) Positions() map[int]Position {
	out := make(map[int]Position, len(w.nodes))
	for _, n := range w.nodes {
		out[n.id] = n.pos
	}
	return out
}
