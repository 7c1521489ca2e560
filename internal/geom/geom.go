// Package geom provides the 2-D planar geometry used to describe power and
// ground plane shapes: points, rectangles, polygons with holes, point
// containment, areas, and simple constructors for the shapes that appear in
// the DAC'98 paper (rectangular planes, L-shaped patches, split planes).
// All coordinates are in metres.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D point in the plane of a conductor layer.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle [X0,X1]×[Y0,Y1].
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W returns the width (x extent).
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the height (y extent).
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the rectangle centre.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Polygon is a simple polygon given by its vertices in order (either
// winding); the edge from the last vertex back to the first is implicit.
type Polygon []Point

// Area returns the unsigned polygon area (shoelace formula).
func (pg Polygon) Area() float64 {
	return math.Abs(pg.SignedArea())
}

// SignedArea returns the signed shoelace area: positive for counter-clockwise
// winding.
func (pg Polygon) SignedArea() float64 {
	n := len(pg)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg[i].X*pg[j].Y - pg[j].X*pg[i].Y
	}
	return s / 2
}

// Contains reports whether p lies strictly inside the polygon, using the
// even-odd ray casting rule. Points exactly on an edge may land on either
// side; plane meshing nudges sample points off cell boundaries so this does
// not matter in practice.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg[i], pg[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xCross := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// Bounds returns the axis-aligned bounding box of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{pg[0].X, pg[0].Y, pg[0].X, pg[0].Y}
	for _, p := range pg[1:] {
		r.X0 = math.Min(r.X0, p.X)
		r.Y0 = math.Min(r.Y0, p.Y)
		r.X1 = math.Max(r.X1, p.X)
		r.Y1 = math.Max(r.Y1, p.Y)
	}
	return r
}

// Shape is a polygon with optional holes (anti-pads, slots, split-outs). A
// point is inside the shape if it is inside the outline and outside every
// hole.
type Shape struct {
	Outline Polygon
	Holes   []Polygon
}

// Contains reports whether p is inside the shape.
func (s Shape) Contains(p Point) bool {
	if !s.Outline.Contains(p) {
		return false
	}
	for _, h := range s.Holes {
		if h.Contains(p) {
			return false
		}
	}
	return true
}

// Area returns the net area: outline minus holes.
func (s Shape) Area() float64 {
	a := s.Outline.Area()
	for _, h := range s.Holes {
		a -= h.Area()
	}
	return a
}

// Bounds returns the bounding box of the outline.
func (s Shape) Bounds() Rect { return s.Outline.Bounds() }

// RectShape builds a rectangular plane shape of size w×h with its lower-left
// corner at (x0, y0).
func RectShape(x0, y0, w, h float64) Shape {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: non-positive rectangle %g x %g", w, h))
	}
	return Shape{Outline: Polygon{
		{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h},
	}}
}

// LShape builds an L-shaped patch: a w×h rectangle with a notchW×notchH
// rectangle removed from its upper-right corner. This is the shape of the
// paper's first verification example (the L-shaped microstrip patch of
// Mosig's MPIE paper).
func LShape(w, h, notchW, notchH float64) Shape {
	if notchW >= w || notchH >= h {
		panic("geom: LShape notch must be smaller than the outline")
	}
	return Shape{Outline: Polygon{
		{0, 0}, {w, 0}, {w, h - notchH}, {w - notchW, h - notchH}, {w - notchW, h}, {0, h},
	}}
}

// SplitPlanes builds two complementary plane shapes sharing a w×h outline,
// split by a vertical gap of the given width centred at splitX — the
// structure of the paper's Fig. 1 (a 3.3 V net and a 5 V net complementing
// each other on one layer).
func SplitPlanes(w, h, splitX, gap float64) (left, right Shape) {
	if splitX-gap/2 <= 0 || splitX+gap/2 >= w {
		panic("geom: SplitPlanes split line must be interior")
	}
	left = RectShape(0, 0, splitX-gap/2, h)
	right = RectShape(splitX+gap/2, 0, w-splitX-gap/2, h)
	return left, right
}
