// Package core orchestrates the full extraction pipeline of the paper —
// geometry → quadrilateral mesh → BEM assembly → quasi-static equivalent
// circuit — behind a single board description that the command-line tools
// read as JSON. Dimensions in the JSON are millimetres (the natural unit of
// the paper's structures); everything internal is SI.
package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

// PortSpec places a named external connection (power/ground pin, via,
// probe pad) on the plane. Coordinates in mm.
type PortSpec struct {
	Name string  `json:"name"`
	X    float64 `json:"x_mm"`
	Y    float64 `json:"y_mm"`
}

// ShapeSpec describes the plane outline. Type is "rect", "lshape" or
// "polygon"; dimensions in mm.
type ShapeSpec struct {
	Type   string         `json:"type"`
	W      float64        `json:"w_mm"`
	H      float64        `json:"h_mm"`
	NotchW float64        `json:"notch_w_mm,omitempty"`
	NotchH float64        `json:"notch_h_mm,omitempty"`
	Points [][2]float64   `json:"points_mm,omitempty"`
	Holes  [][][2]float64 `json:"holes_mm,omitempty"`
}

// BoardSpec is the JSON-facing description of one plane-pair extraction.
type BoardSpec struct {
	Name       string     `json:"name"`
	Shape      ShapeSpec  `json:"shape"`
	PlaneSepMM float64    `json:"plane_sep_mm"`
	EpsR       float64    `json:"eps_r"`
	SheetRes   float64    `json:"sheet_res_ohm_sq"`   // per plane
	Kernel     string     `json:"kernel,omitempty"`   // "over-ground" (default) or "microstrip"
	Testing    string     `json:"testing,omitempty"`  // "collocation" (default) or "galerkin"
	Operator   string     `json:"operator,omitempty"` // "auto" (default), "dense" or "toeplitz"
	MeshNx     int        `json:"mesh_nx"`
	MeshNy     int        `json:"mesh_ny"`
	ExtraNodes int        `json:"extra_nodes"`
	NImages    int        `json:"n_images,omitempty"`
	Ports      []PortSpec `json:"ports"`
}

const mm = 1e-3

// ParseBoard decodes and validates a JSON board description.
func ParseBoard(data []byte) (*BoardSpec, error) {
	var b BoardSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, &simerr.BadInputError{Op: "core: parse board", Detail: "invalid JSON", Err: err}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// finite reports whether x is an ordinary (non-NaN, non-Inf) float. NaN
// slips through ordering comparisons (every comparison is false), so each
// numeric field is screened explicitly before the range checks.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Validate checks the specification for completeness. All failures are
// simerr.ErrBadInput-class.
func (b *BoardSpec) Validate() error {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("core: validate", format, args...)
	}
	if !finite(b.PlaneSepMM) || b.PlaneSepMM <= 0 {
		return bad("plane_sep_mm must be positive and finite, got %g", b.PlaneSepMM)
	}
	if !finite(b.EpsR) || b.EpsR < 1 {
		return bad("eps_r must be ≥ 1 and finite, got %g", b.EpsR)
	}
	if !finite(b.SheetRes) || b.SheetRes < 0 {
		return bad("sheet_res_ohm_sq must be non-negative and finite, got %g", b.SheetRes)
	}
	if len(b.Ports) == 0 {
		return bad("at least one port is required")
	}
	for _, p := range b.Ports {
		if !finite(p.X) || !finite(p.Y) {
			return bad("port %s has non-finite coordinates (%g, %g)", p.Name, p.X, p.Y)
		}
	}
	for _, v := range []float64{b.Shape.W, b.Shape.H, b.Shape.NotchW, b.Shape.NotchH} {
		if !finite(v) {
			return bad("shape has a non-finite dimension %g", v)
		}
	}
	switch b.Shape.Type {
	case "rect":
		if b.Shape.W <= 0 || b.Shape.H <= 0 {
			return bad("rect shape needs positive w_mm and h_mm")
		}
	case "lshape":
		if b.Shape.W <= 0 || b.Shape.H <= 0 || b.Shape.NotchW <= 0 || b.Shape.NotchH <= 0 {
			return bad("lshape needs positive outline and notch")
		}
		if b.Shape.NotchW >= b.Shape.W || b.Shape.NotchH >= b.Shape.H {
			return bad("lshape notch must be smaller than the outline")
		}
	case "polygon":
		if len(b.Shape.Points) < 3 {
			return bad("polygon needs at least 3 points")
		}
		for i, p := range b.Shape.Points {
			if !finite(p[0]) || !finite(p[1]) {
				return bad("polygon point %d is non-finite (%g, %g)", i, p[0], p[1])
			}
		}
	default:
		return bad("unknown shape type %q", b.Shape.Type)
	}
	for hi, h := range b.Shape.Holes {
		for i, p := range h {
			if !finite(p[0]) || !finite(p[1]) {
				return bad("hole %d point %d is non-finite (%g, %g)", hi, i, p[0], p[1])
			}
		}
	}
	switch b.Kernel {
	case "", "over-ground", "microstrip":
	default:
		return bad("unknown kernel %q", b.Kernel)
	}
	switch b.Testing {
	case "", "collocation", "galerkin":
	default:
		return bad("unknown testing scheme %q", b.Testing)
	}
	switch b.Operator {
	case "", "auto", "dense", "toeplitz":
	default:
		return bad("unknown operator mode %q", b.Operator)
	}
	return nil
}

// Fingerprint returns a content hash of everything the extracted operators
// depend on: geometry, stackup, mesh resolution, kernel/testing scheme and
// port placement — every field of the spec except the display Name. Two specs
// with equal fingerprints extract identical networks, so the fingerprint is
// the cache key for assembled-operator reuse (a renamed board still hits the
// cache; moving a via or changing the stackup misses it). The hash is over
// the canonical JSON encoding of the spec with Name cleared: encoding/json
// emits struct fields in declaration order with shortest-round-trip float
// formatting, so the encoding — and the hash — is deterministic across runs
// and machines.
func (b *BoardSpec) Fingerprint() string {
	canon := *b
	canon.Name = ""
	blob, err := json.Marshal(&canon)
	if err != nil {
		// BoardSpec is plain data (numbers, strings, slices); Marshal cannot
		// fail on it. Guard anyway: an unhashable spec must never alias
		// another spec's cache entry.
		return "unhashable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// BuildShape converts the spec geometry to SI metres.
func (b *BoardSpec) BuildShape() geom.Shape {
	var s geom.Shape
	switch b.Shape.Type {
	case "rect":
		s = geom.RectShape(0, 0, b.Shape.W*mm, b.Shape.H*mm)
	case "lshape":
		s = geom.LShape(b.Shape.W*mm, b.Shape.H*mm, b.Shape.NotchW*mm, b.Shape.NotchH*mm)
	case "polygon":
		var pg geom.Polygon
		for _, p := range b.Shape.Points {
			pg = append(pg, geom.Point{X: p[0] * mm, Y: p[1] * mm})
		}
		s = geom.Shape{Outline: pg}
	}
	for _, h := range b.Shape.Holes {
		var pg geom.Polygon
		for _, p := range h {
			pg = append(pg, geom.Point{X: p[0] * mm, Y: p[1] * mm})
		}
		s.Holes = append(s.Holes, pg)
	}
	return s
}

// Result bundles the artefacts of one extraction run.
type Result struct {
	Mesh     *mesh.Mesh
	Assembly *bem.Assembly
	Network  *extract.Network
}

// Diagnostics returns the merged numerical-trust trail of the run: every
// invariant check, auto-repair, and conditioning estimate the pipeline
// stages recorded. Never nil; render it with Diagnostics.Render.
func (r *Result) Diagnostics() *diag.Diagnostics {
	d := diag.New()
	if r.Network != nil {
		d.Merge(r.Network.Diag)
	}
	return d
}

// ExtractCtx runs the full pipeline: mesh, BEM assembly, port reduction.
// Cancellation is threaded through the assembly and reduction stages, and
// panics are recovered at the boundary: malformed geometry that panics
// inside geom/mesh surfaces as a simerr.ErrBadInput-class error.
//
//pdnlint:ignore ctxflow cancellation is stage-granular by design: the in-body loop is O(ports) port placement between the ctx-checked assembly and reduction stages
func (b *BoardSpec) ExtractCtx(ctx context.Context) (res *Result, err error) {
	defer simerr.RecoverInto(&err, "core: extract")
	m, asm, err := b.buildAssembly(ctx)
	if err != nil {
		return nil, err
	}
	nw, err := extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: b.ExtraNodes})
	if err != nil {
		return nil, fmt.Errorf("core: extraction: %w", err)
	}
	return &Result{Mesh: m, Assembly: asm, Network: nw}, nil
}

// ExtractSupervisedCtx is ExtractCtx with the reduction stage run under a
// supervision policy: a singular or ill-conditioned reduction is retried
// with escalating diagonal regularization (see extract.ExtractSupervised)
// before the pipeline gives up. The returned Status reports the attempts;
// Status.PerturbRel > 0 means the network was extracted from a regularized
// assembly and the repair is recorded in the network's Diag trail.
//
//pdnlint:ignore ctxflow cancellation is stage-granular by design: the in-body loop is O(ports) port placement between the ctx-checked assembly and reduction stages
func (b *BoardSpec) ExtractSupervisedCtx(ctx context.Context, pol supervise.Policy) (res *Result, st supervise.Status, err error) {
	defer simerr.RecoverInto(&err, "core: extract")
	m, asm, err := b.buildAssembly(ctx)
	if err != nil {
		return nil, st, err
	}
	nw, st, err := extract.ExtractSupervised(ctx, asm, extract.Options{ExtraNodes: b.ExtraNodes}, pol)
	if err != nil {
		return nil, st, fmt.Errorf("core: extraction: %w", err)
	}
	return &Result{Mesh: m, Assembly: asm, Network: nw}, st, nil
}

// buildAssembly runs the geometry → mesh → BEM stages shared by the plain
// and supervised extraction entry points.
//
//pdnlint:ignore ctxflow cancellation is stage-granular by design: the in-body loop is O(ports) port placement before the ctx-checked assembly stage
func (b *BoardSpec) buildAssembly(ctx context.Context) (*mesh.Mesh, *bem.Assembly, error) {
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	nx, ny := b.MeshNx, b.MeshNy
	if nx <= 0 {
		nx = 16
	}
	if ny <= 0 {
		ny = 16
	}
	m, err := mesh.Grid(b.BuildShape(), nx, ny)
	if err != nil {
		return nil, nil, fmt.Errorf("core: meshing: %w", err)
	}
	for _, p := range b.Ports {
		if _, err := m.AddPort(p.Name, geom.Point{X: p.X * mm, Y: p.Y * mm}); err != nil {
			return nil, nil, fmt.Errorf("core: port %s: %w", p.Name, err)
		}
	}
	mode := greens.OverGround
	if b.Kernel == "microstrip" {
		mode = greens.Microstrip
	}
	k, err := greens.NewKernel(mode, b.PlaneSepMM*mm, b.EpsR, b.NImages)
	if err != nil {
		return nil, nil, err
	}
	opts := bem.DefaultOptions()
	if b.Testing == "galerkin" {
		opts.Testing = bem.Galerkin
	}
	switch b.Operator {
	case "dense":
		opts.Operator = bem.OpDense
	case "toeplitz":
		opts.Operator = bem.OpToeplitz
	}
	opts.SheetResistance = b.SheetRes
	opts.ReturnSheetResistance = b.SheetRes
	asm, err := bem.AssembleCtx(ctx, m, k, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: BEM assembly: %w", err)
	}
	return m, asm, nil
}
