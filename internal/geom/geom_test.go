package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -1}
	if p.Add(q) != (Point{4, 1}) {
		t.Fatal("Add")
	}
	if p.Sub(q) != (Point{-2, 3}) {
		t.Fatal("Sub")
	}
	if p.Scale(2) != (Point{2, 4}) {
		t.Fatal("Scale")
	}
	if d := p.Dist(q); math.Abs(d-math.Sqrt(13)) > 1e-15 {
		t.Fatalf("Dist = %g", d)
	}
}

func TestNewRectNormalises(t *testing.T) {
	r := NewRect(2, 3, -1, 1)
	if r.X0 != -1 || r.X1 != 2 || r.Y0 != 1 || r.Y1 != 3 {
		t.Fatalf("NewRect = %+v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 2, 3)
	if r.W() != 2 || r.H() != 3 || r.Area() != 6 {
		t.Fatalf("rect dims wrong: %+v", r)
	}
	if r.Center() != (Point{1, 1.5}) {
		t.Fatal("Center")
	}
	if !r.Contains(Point{1, 1}) || r.Contains(Point{3, 1}) {
		t.Fatal("Contains")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 3)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(1, 1, 2, 2) {
		t.Fatalf("Intersect = %+v ok=%v", got, ok)
	}
	c := NewRect(5, 5, 6, 6)
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint rects must not intersect")
	}
	// Touching edges count as empty.
	d := NewRect(2, 0, 3, 2)
	if _, ok := a.Intersect(d); ok {
		t.Fatal("edge-touching rects must not intersect")
	}
}

func TestRectUnion(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(2, -1, 3, 0.5)
	if a.Union(b) != NewRect(0, -1, 3, 1) {
		t.Fatal("Union")
	}
}

func TestPolygonAreaSquare(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if sq.Area() != 4 {
		t.Fatalf("area = %g", sq.Area())
	}
	if sq.SignedArea() != 4 {
		t.Fatalf("ccw signed area = %g", sq.SignedArea())
	}
	// Reversed winding is negative but unsigned area unchanged.
	rev := Polygon{{0, 2}, {2, 2}, {2, 0}, {0, 0}}
	if rev.SignedArea() != -4 || rev.Area() != 4 {
		t.Fatalf("cw areas = %g/%g", rev.SignedArea(), rev.Area())
	}
}

func TestPolygonAreaTriangle(t *testing.T) {
	tr := Polygon{{0, 0}, {4, 0}, {0, 3}}
	if tr.Area() != 6 {
		t.Fatalf("triangle area = %g", tr.Area())
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := sq.Centroid()
	if math.Abs(c.X-1) > 1e-15 || math.Abs(c.Y-1) > 1e-15 {
		t.Fatalf("centroid = %+v", c)
	}
	tr := Polygon{{0, 0}, {3, 0}, {0, 3}}
	c = tr.Centroid()
	if math.Abs(c.X-1) > 1e-15 || math.Abs(c.Y-1) > 1e-15 {
		t.Fatalf("triangle centroid = %+v", c)
	}
}

func TestPolygonContains(t *testing.T) {
	l := LShape(4, 4, 2, 2).Outline
	inside := []Point{{1, 1}, {3, 1}, {1, 3}, {0.5, 3.9}}
	outside := []Point{{3, 3}, {5, 1}, {-1, 2}, {3.5, 2.5}}
	for _, p := range inside {
		if !l.Contains(p) {
			t.Fatalf("expected %v inside L", p)
		}
	}
	for _, p := range outside {
		if l.Contains(p) {
			t.Fatalf("expected %v outside L", p)
		}
	}
}

func TestPolygonBounds(t *testing.T) {
	pg := Polygon{{1, 2}, {-1, 5}, {3, 0}}
	if pg.Bounds() != NewRect(-1, 0, 3, 5) {
		t.Fatalf("Bounds = %+v", pg.Bounds())
	}
}

func TestPolygonTranslate(t *testing.T) {
	pg := Polygon{{0, 0}, {1, 0}, {0, 1}}
	moved := pg.Translate(Point{10, -2})
	if moved[0] != (Point{10, -2}) || moved[2] != (Point{10, -1}) {
		t.Fatalf("Translate = %v", moved)
	}
	if pg[0] != (Point{0, 0}) {
		t.Fatal("Translate must not mutate the input")
	}
}

func TestShapeWithHole(t *testing.T) {
	s := RectShape(0, 0, 4, 4)
	s.Holes = append(s.Holes, Polygon{{1, 1}, {2, 1}, {2, 2}, {1, 2}})
	if !s.Contains(Point{3, 3}) {
		t.Fatal("point in body should be contained")
	}
	if s.Contains(Point{1.5, 1.5}) {
		t.Fatal("point in hole should not be contained")
	}
	if math.Abs(s.Area()-15) > 1e-12 {
		t.Fatalf("area with hole = %g", s.Area())
	}
}

func TestLShapeArea(t *testing.T) {
	l := LShape(4, 4, 2, 2)
	if math.Abs(l.Area()-12) > 1e-12 {
		t.Fatalf("L area = %g", l.Area())
	}
}

func TestLShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversize notch")
		}
	}()
	LShape(2, 2, 3, 1)
}

func TestSplitPlanes(t *testing.T) {
	left, right := SplitPlanes(10, 5, 6, 0.5)
	if math.Abs(left.Area()-(5.75*5)) > 1e-12 {
		t.Fatalf("left area = %g", left.Area())
	}
	if math.Abs(right.Area()-(3.75*5)) > 1e-12 {
		t.Fatalf("right area = %g", right.Area())
	}
	// The two nets must not overlap and must leave the gap uncovered.
	if left.Contains(Point{6, 2.5}) || right.Contains(Point{6, 2.5}) {
		t.Fatal("gap centre must be in neither net")
	}
	if !left.Contains(Point{1, 1}) || !right.Contains(Point{9, 1}) {
		t.Fatal("net bodies must contain their interiors")
	}
}

func TestContainmentConsistencyProperty(t *testing.T) {
	// Any point inside a hole is never contained; any point inside the
	// outline and all holes' complements is contained.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RectShape(0, 0, 10, 10)
		s.Holes = []Polygon{{{2, 2}, {4, 2}, {4, 4}, {2, 4}}}
		for i := 0; i < 50; i++ {
			p := Point{rng.Float64() * 12, rng.Float64() * 12}
			in := s.Contains(p)
			inOutline := s.Outline.Contains(p)
			inHole := s.Holes[0].Contains(p)
			if in != (inOutline && !inHole) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPolygonAreaTranslationInvariantProperty(t *testing.T) {
	f := func(dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.IsNaN(dy) || math.IsInf(dy, 0) {
			return true
		}
		// Bound the shift so floating point cancellation stays benign.
		dx = math.Mod(dx, 1e3)
		dy = math.Mod(dy, 1e3)
		pg := Polygon{{0, 0}, {3, 0}, {3, 2}, {1, 2}, {1, 1}, {0, 1}}
		moved := pg.Translate(Point{dx, dy})
		return math.Abs(pg.Area()-moved.Area()) < 1e-9*(1+math.Abs(dx)+math.Abs(dy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Geometry operations only these tests use; the mesher and the solver
// never call them.

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// NewRect normalises the corner ordering so X0 ≤ X1 and Y0 ≤ Y1.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Intersect returns the overlap of two rectangles and whether it is non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	out := Rect{
		X0: math.Max(r.X0, o.X0), Y0: math.Max(r.Y0, o.Y0),
		X1: math.Min(r.X1, o.X1), Y1: math.Min(r.Y1, o.Y1),
	}
	if out.X0 >= out.X1 || out.Y0 >= out.Y1 {
		return Rect{}, false
	}
	return out, true
}

// Union returns the bounding box of two rectangles.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		X0: math.Min(r.X0, o.X0), Y0: math.Min(r.Y0, o.Y0),
		X1: math.Max(r.X1, o.X1), Y1: math.Max(r.Y1, o.Y1),
	}
}

// Centroid returns the area centroid of the polygon.
func (pg Polygon) Centroid() Point {
	n := len(pg)
	if n == 0 {
		return Point{}
	}
	a := pg.SignedArea()
	if a == 0 {
		// Degenerate: average the vertices.
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(n))
	}
	var cx, cy float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cross := pg[i].X*pg[j].Y - pg[j].X*pg[i].Y
		cx += (pg[i].X + pg[j].X) * cross
		cy += (pg[i].Y + pg[j].Y) * cross
	}
	return Point{cx / (6 * a), cy / (6 * a)}
}

// Translate returns a copy of the polygon shifted by d.
func (pg Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = p.Add(d)
	}
	return out
}
