package torus

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, x, y, z int) *Torus {
	t.Helper()
	tor, err := New(x, y, z)
	if err != nil {
		t.Fatalf("New(%d,%d,%d): %v", x, y, z, err)
	}
	return tor
}

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := New(dims[0], dims[1], dims[2]); !errors.Is(err, ErrBadDimensions) {
			t.Errorf("New(%v) error = %v, want ErrBadDimensions", dims, err)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	tor := mustNew(t, 4, 4, 2)
	for id := 0; id < tor.Size(); id++ {
		c, err := tor.CoordOf(id)
		if err != nil {
			t.Fatalf("CoordOf(%d): %v", id, err)
		}
		if got := tor.IDOf(c); got != id {
			t.Errorf("IDOf(CoordOf(%d)) = %d", id, got)
		}
	}
	if _, err := tor.CoordOf(-1); err == nil {
		t.Error("CoordOf(-1) should fail")
	}
	if _, err := tor.CoordOf(tor.Size()); err == nil {
		t.Error("CoordOf(size) should fail")
	}
}

func TestIDOfWrapsCoordinates(t *testing.T) {
	tor := mustNew(t, 4, 4, 2)
	if got := tor.IDOf(Coord{X: 5, Y: -1, Z: 2}); got != tor.IDOf(Coord{X: 1, Y: 3, Z: 0}) {
		t.Errorf("IDOf should wrap modulo dimensions, got %d", got)
	}
}

func TestEnumerationMatchesPaper(t *testing.T) {
	// x-major enumeration: node 1 = (1,0,0), node 2 = (2,0,0), node 4 =
	// (0,1,0) — the basis of the Figure 7 topologies.
	tor := mustNew(t, 4, 4, 2)
	want := map[int]Coord{
		0: {0, 0, 0},
		1: {1, 0, 0},
		2: {2, 0, 0},
		4: {0, 1, 0},
	}
	for id, c := range want {
		got, err := tor.CoordOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Errorf("CoordOf(%d) = %v, want %v", id, got, c)
		}
	}
}

func TestSequentialRouteViaIntermediate(t *testing.T) {
	// The paper's sequential selection: messages from node 2 to node 0 are
	// routed through node 1's communication co-processor.
	tor := mustNew(t, 4, 4, 2)
	path, err := tor.Route(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != 1 || path[1] != 0 {
		t.Fatalf("Route(2,0) = %v, want [1 0]", path)
	}
	mids, err := tor.Intermediates(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mids) != 1 || mids[0] != 1 {
		t.Fatalf("Intermediates(2,0) = %v, want [1]", mids)
	}
}

func TestBalancedRouteDirect(t *testing.T) {
	// The balanced selection: node 4 is a direct torus neighbor of node 0.
	tor := mustNew(t, 4, 4, 2)
	path, err := tor.Route(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 0 {
		t.Fatalf("Route(4,0) = %v, want [0]", path)
	}
	mids, err := tor.Intermediates(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mids) != 0 {
		t.Fatalf("Intermediates(4,0) = %v, want none", mids)
	}
}

func TestRouteToSelf(t *testing.T) {
	tor := mustNew(t, 4, 4, 2)
	path, err := tor.Route(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 0 {
		t.Errorf("Route(5,5) = %v, want empty", path)
	}
}

func TestRouteWrapAround(t *testing.T) {
	// 0 -> 3 in an X-ring of 4 should take the single wraparound hop.
	tor := mustNew(t, 4, 1, 1)
	hops, err := tor.HopCount(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 1 {
		t.Errorf("HopCount(0,3) = %d, want 1 (wraparound)", hops)
	}
}

func TestRouteRejectsBadNodes(t *testing.T) {
	tor := mustNew(t, 4, 4, 2)
	if _, err := tor.Route(-1, 0); err == nil {
		t.Error("Route(-1,0) should fail")
	}
	if _, err := tor.Route(0, 99); err == nil {
		t.Error("Route(0,99) should fail")
	}
}

// TestRouteProperties checks, for random torus shapes and node pairs, that
// routes end at the destination, take only single-dimension unit steps
// (modulo wraparound), and never exceed the theoretical maximum length.
func TestRouteProperties(t *testing.T) {
	f := func(dx, dy, dz, a, b uint8) bool {
		x, y, z := int(dx%5)+1, int(dy%5)+1, int(dz%3)+1
		tor, err := New(x, y, z)
		if err != nil {
			return false
		}
		src := int(a) % tor.Size()
		dst := int(b) % tor.Size()
		path, err := tor.Route(src, dst)
		if err != nil {
			return false
		}
		if src == dst {
			return len(path) == 0
		}
		if path[len(path)-1] != dst {
			return false
		}
		maxHops := x/2 + y/2 + z/2
		if len(path) > maxHops && maxHops > 0 {
			return false
		}
		// Each step changes exactly one coordinate by ±1 (mod dimension).
		cur, err := tor.CoordOf(src)
		if err != nil {
			return false
		}
		for _, id := range path {
			next, err := tor.CoordOf(id)
			if err != nil {
				return false
			}
			changed := 0
			if !ringStep(cur.X, next.X, x) {
				if cur.X != next.X {
					return false
				}
			} else {
				changed++
			}
			if !ringStep(cur.Y, next.Y, y) {
				if cur.Y != next.Y {
					return false
				}
			} else {
				changed++
			}
			if !ringStep(cur.Z, next.Z, z) {
				if cur.Z != next.Z {
					return false
				}
			} else {
				changed++
			}
			if changed != 1 {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ringStep reports whether a -> b is a unit step on a ring of the given
// size.
func ringStep(a, b, size int) bool {
	if a == b {
		return false
	}
	d := (b - a + size) % size
	return d == 1 || d == size-1
}

// TestHopsSymmetricDistance: the hop count of the dimension-ordered route
// equals the Manhattan distance on the torus (per-dimension shortest ring
// distance).
func TestHopsSymmetricDistance(t *testing.T) {
	tor := mustNew(t, 4, 4, 2)
	for src := 0; src < tor.Size(); src++ {
		for dst := 0; dst < tor.Size(); dst++ {
			got, err := tor.HopCount(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			a, err := tor.CoordOf(src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tor.CoordOf(dst)
			if err != nil {
				t.Fatal(err)
			}
			want := ringDist(a.X, b.X, 4) + ringDist(a.Y, b.Y, 4) + ringDist(a.Z, b.Z, 2)
			if got != want {
				t.Fatalf("HopCount(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

// HopCount must agree exactly with the materialized route's length on every
// pair — it is the planner's allocation-free fast path.
func TestHopCountMatchesRouteLength(t *testing.T) {
	for _, dims := range [][3]int{{4, 4, 2}, {3, 5, 4}, {2, 2, 2}, {6, 1, 1}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		n := tor.Size()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				route, err := tor.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				hops, err := tor.HopCount(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if hops != len(route) {
					t.Fatalf("dims %v: HopCount(%d,%d) = %d, route length %d",
						dims, src, dst, hops, len(route))
				}
			}
		}
	}
	if _, err := (&Torus{dimX: 2, dimY: 2, dimZ: 2}).HopCount(0, 99); err == nil {
		t.Fatal("HopCount accepted an out-of-range node")
	}
}

// referenceRoute is the route definition written the slow, obvious way: one
// coordinate at a time, re-deciding the direction at every step. Route and
// AppendRoute must produce exactly its paths.
func referenceRoute(tor *Torus, src, dst int) []int {
	cur, _ := tor.CoordOf(src)
	to, _ := tor.CoordOf(dst)
	var path []int
	for cur.X != to.X {
		cur.X = mod(cur.X+shortestStep(cur.X, to.X, tor.dimX), tor.dimX)
		path = append(path, tor.IDOf(cur))
	}
	for cur.Y != to.Y {
		cur.Y = mod(cur.Y+shortestStep(cur.Y, to.Y, tor.dimY), tor.dimY)
		path = append(path, tor.IDOf(cur))
	}
	for cur.Z != to.Z {
		cur.Z = mod(cur.Z+shortestStep(cur.Z, to.Z, tor.dimZ), tor.dimZ)
		path = append(path, tor.IDOf(cur))
	}
	return path
}

// TestRouteMatchesReference holds Route and AppendRoute to the reference on
// every pair of several shapes (even dimensions have direction ties), and
// pins what each allocates: Route one exact-size slice, AppendRoute into a
// grown scratch slice nothing — the planner walks a route per candidate.
func TestRouteMatchesReference(t *testing.T) {
	var scratch []int
	for _, dims := range [][3]int{{4, 4, 2}, {3, 5, 4}, {2, 2, 2}, {6, 1, 1}, {8, 8, 8}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		n := tor.Size()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := referenceRoute(tor, src, dst)
				got, err := tor.Route(src, dst)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("dims %v: Route(%d,%d) = %v, %v; want %v", dims, src, dst, got, err, want)
				}
				if cap(got) != len(want) {
					t.Fatalf("dims %v: Route(%d,%d) has capacity %d for %d hops", dims, src, dst, cap(got), len(want))
				}
				scratch, err = tor.AppendRoute(scratch[:0], src, dst)
				if err != nil || !slices.Equal(scratch, want) {
					t.Fatalf("dims %v: AppendRoute(%d,%d) = %v, %v; want %v", dims, src, dst, scratch, err, want)
				}
			}
		}
	}
	tor, _ := New(8, 8, 8)
	if got, err := tor.AppendRoute([]int{7}, 0, 99999); err == nil || !slices.Equal(got, []int{7}) {
		t.Fatalf("AppendRoute to a node out of range = %v, %v; want the path untouched and an error", got, err)
	}
	if a := testing.AllocsPerRun(100, func() { scratch, _ = tor.AppendRoute(scratch[:0], 0, 292) }); a != 0 {
		t.Errorf("AppendRoute into a grown scratch slice allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { tor.Route(0, 292) }); a != 1 {
		t.Errorf("Route allocates %v times, want its one exact-size path", a)
	}
}

// IDOf returns the node id at coordinate c (coordinates are taken modulo the
// torus dimensions, so any integer coordinate is valid).
func (t *Torus) IDOf(c Coord) int {
	x := mod(c.X, t.dimX)
	y := mod(c.Y, t.dimY)
	z := mod(c.Z, t.dimZ)
	return x + y*t.dimX + z*t.dimX*t.dimY
}
