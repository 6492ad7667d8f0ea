// Package torus models the BlueGene/L 3D torus interconnection network.
//
// Compute nodes are arranged in an X×Y×Z torus. Messages between
// non-adjacent nodes are routed through the communication co-processors of
// the nodes in between (paper §3.1); communication is slower if those
// co-processors are busy. Routing is dimension-ordered (X, then Y, then Z),
// taking the shorter wraparound direction in each dimension, which is how
// BlueGene/L's deterministic routing behaves.
//
// The package is purely topological: it maps node ids to coordinates and
// computes routes. Time costs are charged by internal/mpicar against the
// per-node co-processor resources owned by internal/hw.
package torus

import (
	"errors"
	"fmt"
)

// Coord is a position in the 3D torus.
type Coord struct {
	X, Y, Z int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Torus describes an X×Y×Z torus of compute nodes. Node ids enumerate
// positions in x-major order: id = x + y·X + z·X·Y, matching the paper's
// statement that "the enumeration of compute nodes in the BlueGene 3D torus
// is known".
type Torus struct {
	dimX, dimY, dimZ int
}

// ErrBadDimensions reports a torus constructed with a non-positive dimension.
var ErrBadDimensions = errors.New("torus: dimensions must be positive")

// New returns a torus with the given dimensions.
func New(x, y, z int) (*Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, ErrBadDimensions
	}
	return &Torus{dimX: x, dimY: y, dimZ: z}, nil
}

// Size returns the number of compute nodes in the torus.
func (t *Torus) Size() int { return t.dimX * t.dimY * t.dimZ }

// Dims returns the torus dimensions.
func (t *Torus) Dims() (x, y, z int) { return t.dimX, t.dimY, t.dimZ }

// CoordOf returns the coordinates of node id. It reports an error if id is
// out of range.
func (t *Torus) CoordOf(id int) (Coord, error) {
	if id < 0 || id >= t.Size() {
		return Coord{}, fmt.Errorf("torus: node %d out of range [0,%d)", id, t.Size())
	}
	return Coord{
		X: id % t.dimX,
		Y: (id / t.dimX) % t.dimY,
		Z: id / (t.dimX * t.dimY),
	}, nil
}

// Route returns the sequence of node ids a message visits travelling from
// src to dst, excluding src and including dst. Routing is dimension-ordered
// (X then Y then Z), taking the shorter wraparound direction; ties go to the
// negative direction (see shortestStep). Route(src, src) returns an empty
// path.
func (t *Torus) Route(src, dst int) ([]int, error) {
	n, err := t.HopCount(src, dst)
	if err != nil || n == 0 {
		return nil, err
	}
	return t.AppendRoute(make([]int, 0, n), src, dst)
}

// AppendRoute appends Route(src, dst) to path and returns the extended
// slice: a caller that only walks routes (the placement planner counts busy
// co-processors on them) reuses one scratch slice and allocates nothing.
func (t *Torus) AppendRoute(path []int, src, dst int) ([]int, error) {
	from, err := t.CoordOf(src)
	if err != nil {
		return path, err
	}
	to, err := t.CoordOf(dst)
	if err != nil {
		return path, err
	}
	id := src
	path, id = ringWalk(path, id, from.X, to.X, t.dimX, 1)
	path, id = ringWalk(path, id, from.Y, to.Y, t.dimY, t.dimX)
	path, _ = ringWalk(path, id, from.Z, to.Z, t.dimZ, t.dimX*t.dimY)
	return path, nil
}

// ringWalk moves along one dimension from ring position a to b in the
// shorter direction, appending the id of every node entered. stride is the
// id distance between ring neighbours in that dimension; id is the node the
// walk starts from, and the node it ends on is returned.
func ringWalk(path []int, id, a, b, size, stride int) ([]int, int) {
	step := shortestStep(a, b, size)
	for a != b {
		next := mod(a+step, size)
		id += (next - a) * stride
		a = next
		path = append(path, id)
	}
	return path, id
}

// HopCount is the number of torus links a message from src to dst crosses —
// the length of Route(src, dst) without materializing it: the sum of the
// per-dimension minimal ring distances, O(1) and allocation-free.
func (t *Torus) HopCount(src, dst int) (int, error) {
	from, err := t.CoordOf(src)
	if err != nil {
		return 0, err
	}
	to, err := t.CoordOf(dst)
	if err != nil {
		return 0, err
	}
	return ringDist(from.X, to.X, t.dimX) +
		ringDist(from.Y, to.Y, t.dimY) +
		ringDist(from.Z, to.Z, t.dimZ), nil
}

// ringDist is the minimal distance between a and b on a ring of the given
// size (ties between directions are equidistant, so the value is unique).
func ringDist(a, b, size int) int {
	d := mod(b-a, size)
	if size-d < d {
		return size - d
	}
	return d
}

// Intermediates returns the co-processors (node ids) that forward traffic
// from src to dst: the route excluding the destination itself.
func (t *Torus) Intermediates(src, dst int) ([]int, error) {
	p, err := t.Route(src, dst)
	if err != nil {
		return nil, err
	}
	if len(p) == 0 {
		return nil, nil
	}
	return p[:len(p)-1], nil
}

// shortestStep returns +1 or -1: the direction of the shorter path from a to
// b in a ring of the given size. Ties resolve to -1, the decreasing
// direction, so traffic between low-numbered nodes is routed through the
// nodes between them — the configuration the paper's sequential node
// selection (Figure 7A) exploits.
func shortestStep(a, b, size int) int {
	forward := mod(b-a, size)
	backward := mod(a-b, size)
	if backward <= forward {
		return -1
	}
	return 1
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
