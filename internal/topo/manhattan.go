package topo

import (
	"math"
	"math/rand"

	"muzha/internal/sim"
)

// ManhattanConfig parameterizes the Manhattan-grid mobility model:
// nodes move along the streets of a city grid (vertical streets at
// x = i*Spacing, horizontal at y = j*Spacing) and draw turn decisions
// at intersections — straight 50%, left 25%, right 25% — with a fresh
// speed per street segment. It complements the random-waypoint model
// for MANET scenarios where motion is road-constrained.
type ManhattanConfig struct {
	Width, Height    float64  // field bounds in metres
	Spacing          float64  // street spacing in metres (default DefaultSpacing)
	MinSpeed         float64  // m/s, must be > 0
	MaxSpeed         float64  // m/s, >= MinSpeed
	UpdateInterval   sim.Time // how often positions are pushed to the PHY
	MobileNodes      []int    // node IDs that move; others stay put
	InitialPositions []Position
}

// Manhattan runs the street-grid model on a simulator, pushing
// positions into a PositionSetter at a fixed cadence (the same
// contract as Waypoint).
type Manhattan struct {
	cfg    ManhattanConfig
	sim    *sim.Simulator
	rng    *rand.Rand
	target PositionSetter
	nodes  []manhattanNode
	// maxX/maxY are the last street lines inside the field.
	maxX, maxY float64
}

type manhattanNode struct {
	id     int
	pos    Position
	dx, dy int // unit direction along the current street
	speed  float64
}

// NewManhattan validates the configuration and prepares the model;
// mobile nodes are snapped to their nearest street. Call Start to
// begin motion.
func NewManhattan(s *sim.Simulator, target PositionSetter, cfg ManhattanConfig) (*Manhattan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = DefaultSpacing
	}
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = 100 * sim.Millisecond
	}
	m := &Manhattan{
		cfg:    cfg,
		sim:    s,
		rng:    s.Rand(),
		target: target,
		maxX:   math.Floor(cfg.Width/cfg.Spacing) * cfg.Spacing,
		maxY:   math.Floor(cfg.Height/cfg.Spacing) * cfg.Spacing,
	}
	for _, id := range cfg.MobileNodes {
		m.nodes = append(m.nodes, manhattanNode{id: id, pos: m.snap(cfg.InitialPositions[id])})
	}
	return m, nil
}

// Validate reports what NewManhattan would reject.
func (c ManhattanConfig) Validate() error {
	return validateMotion("manhattan", c.Width, c.Height, c.MinSpeed, c.MaxSpeed, c.MobileNodes, len(c.InitialPositions))
}

// snap moves a position onto its nearest street (the closer of the
// nearest vertical and horizontal line), clamped into the street grid.
func (m *Manhattan) snap(p Position) Position {
	sp := m.cfg.Spacing
	clamp := func(v, hi float64) float64 {
		return math.Min(math.Max(v, 0), hi)
	}
	x, y := clamp(p.X, m.maxX), clamp(p.Y, m.maxY)
	vx := clamp(math.Round(x/sp)*sp, m.maxX)
	hy := clamp(math.Round(y/sp)*sp, m.maxY)
	if math.Abs(x-vx) <= math.Abs(y-hy) {
		return Position{X: vx, Y: y} // vertical street
	}
	return Position{X: x, Y: hy} // horizontal street
}

// Start draws initial directions and speeds and schedules the periodic
// position updates until the simulation ends.
func (m *Manhattan) Start() {
	for i := range m.nodes {
		n := &m.nodes[i]
		onVertical := math.Mod(n.pos.X, m.cfg.Spacing) == 0
		onHorizontal := math.Mod(n.pos.Y, m.cfg.Spacing) == 0
		switch {
		case onVertical && !onHorizontal:
			n.dx, n.dy = 0, 1
		case onHorizontal && !onVertical:
			n.dx, n.dy = 1, 0
		default: // at an intersection: any axis
			if m.rng.Float64() < 0.5 {
				n.dx, n.dy = 1, 0
			} else {
				n.dx, n.dy = 0, 1
			}
		}
		if !m.validDir(n.pos, n.dx, n.dy) {
			n.dx, n.dy = -n.dx, -n.dy
		}
		n.speed = m.drawSpeed()
	}
	m.sim.Schedule(m.cfg.UpdateInterval, m.step)
}

func (m *Manhattan) drawSpeed() float64 {
	return m.cfg.MinSpeed + m.rng.Float64()*(m.cfg.MaxSpeed-m.cfg.MinSpeed)
}

// validDir reports whether moving from p along (dx,dy) stays on the
// street grid.
func (m *Manhattan) validDir(p Position, dx, dy int) bool {
	const eps = 1e-9
	switch {
	case dx > 0:
		return p.X < m.maxX-eps
	case dx < 0:
		return p.X > eps
	case dy > 0:
		return p.Y < m.maxY-eps
	case dy < 0:
		return p.Y > eps
	}
	return false
}

func (m *Manhattan) step() {
	dt := m.cfg.UpdateInterval.Seconds()
	for i := range m.nodes {
		n := &m.nodes[i]
		m.advance(n, n.speed*dt)
		m.target.SetPosition(n.id, n.pos)
	}
	m.sim.Schedule(m.cfg.UpdateInterval, m.step)
}

// advance moves a node by travel metres along its street, handling any
// intersections crossed on the way (turn decision + speed redraw at
// each). The iteration bound guards against pathological speed/spacing
// ratios; motion truncated by it resumes next step.
func (m *Manhattan) advance(n *manhattanNode, travel float64) {
	for hops := 0; hops < 16 && travel > 0; hops++ {
		next := m.nextIntersection(n)
		dist := math.Abs(next.X-n.pos.X) + math.Abs(next.Y-n.pos.Y)
		if travel < dist {
			n.pos.X += float64(n.dx) * travel
			n.pos.Y += float64(n.dy) * travel
			return
		}
		n.pos = next
		travel -= dist
		m.turn(n)
		n.speed = m.drawSpeed()
	}
}

// nextIntersection returns the next street crossing ahead of the node.
func (m *Manhattan) nextIntersection(n *manhattanNode) Position {
	const eps = 1e-9
	sp := m.cfg.Spacing
	p := n.pos
	switch {
	case n.dx > 0:
		p.X = math.Min((math.Floor(n.pos.X/sp+eps)+1)*sp, m.maxX)
	case n.dx < 0:
		p.X = math.Max((math.Ceil(n.pos.X/sp-eps)-1)*sp, 0)
	case n.dy > 0:
		p.Y = math.Min((math.Floor(n.pos.Y/sp+eps)+1)*sp, m.maxY)
	default:
		p.Y = math.Max((math.Ceil(n.pos.Y/sp-eps)-1)*sp, 0)
	}
	return p
}

// turn draws the intersection decision: straight 50%, left 25%, right
// 25%; a choice that would leave the grid falls back through straight,
// left, right, reverse in that order.
func (m *Manhattan) turn(n *manhattanNode) {
	straight := [2]int{n.dx, n.dy}
	left := [2]int{-n.dy, n.dx}
	right := [2]int{n.dy, -n.dx}
	reverse := [2]int{-n.dx, -n.dy}
	var pick [2]int
	switch r := m.rng.Float64(); {
	case r < 0.5:
		pick = straight
	case r < 0.75:
		pick = left
	default:
		pick = right
	}
	if m.validDir(n.pos, pick[0], pick[1]) {
		n.dx, n.dy = pick[0], pick[1]
		return
	}
	for _, d := range [][2]int{straight, left, right, reverse} {
		if m.validDir(n.pos, d[0], d[1]) {
			n.dx, n.dy = d[0], d[1]
			return
		}
	}
}

// Positions returns the current position of every mobile node, keyed
// by node ID. Mostly for tests.
func (m *Manhattan) Positions() map[int]Position {
	out := make(map[int]Position, len(m.nodes))
	for _, n := range m.nodes {
		out[n.id] = n.pos
	}
	return out
}
