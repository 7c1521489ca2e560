package main

// Committed golden outputs and the checker. Goldens are computed once per
// corpus with -write-goldens through the library entry points (never the
// daemon), so a run checks the daemon path against an independent
// extraction; sweep goldens store each board's reduced network, and the
// checker evaluates the expected S matrices from it with its own complex
// solver rather than the package under test.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pdnsim/internal/core"
)

// extractRelTol is the extraction and sweep agreement tolerance: the
// documented dense-vs-operator contract of the reduction (extract's
// operatorAgreeRelTol), so moving the operator-path gate cannot trip it.
const extractRelTol = 1e-6

// The SSN tolerance follows the Newton stopping rule of the device models:
// a converged step sits within devAbsTol + devRelTol·|v| (1 µV + 1e-4
// relative, SPICE's vntol/reltol) of the exact fixed point. Peak metrics
// of a trapezoidal transient inherit that band at every step, and the
// stable integrator carries a step's error forward without growth, so ten
// bands bound what a change of Newton path (iteration order, a different
// but equally converged iterate) can move a peak by.
const (
	ssnAbsTol = 10 * 1e-6
	ssnRelTol = 10 * 1e-4
)

// goldenDir holds the committed goldens, next to the benchmark's source.
const goldenDir = "goldens"

// boardGolden is the reference extraction of one corpus board.
type boardGolden struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	CTotal      float64 `json:"c_total_f"`
	Nodes       int     `json:"nodes"`
	Ports       int     `json:"ports"`
	// Network is recorded for swept boards only: upper triangles (row-major)
	// of the reduced Γ, C and G, enough to evaluate S at any frequency.
	Gamma []float64 `json:"gamma_upper,omitempty"`
	C     []float64 `json:"c_upper,omitempty"`
	G     []float64 `json:"g_upper,omitempty"`
}

// ssnGolden is the reference output of one corpus scenario.
type ssnGolden struct {
	Name   string     `json:"name"`
	Output ssnOutcome `json:"output"`
}

type goldenFile struct {
	Workload string        `json:"workload"`
	Boards   []boardGolden `json:"boards,omitempty"`
	SSN      []ssnGolden   `json:"ssn,omitempty"`
}

func goldenPath(root, workload string) string {
	return filepath.Join(root, goldenDir, workload+".json")
}

func loadGoldens(root, workload string) (*goldenFile, error) {
	blob, err := os.ReadFile(goldenPath(root, workload))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", workload, err)
	}
	return &g, nil
}

// upper packs the upper triangle of a square matrix row by row.
func upper(n int, at func(i, j int) float64) []float64 {
	out := make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out = append(out, at(i, j))
		}
	}
	return out
}

// fullSym unpacks an upper triangle into a dense symmetric accessor.
func fullSym(n int, up []float64) func(i, j int) float64 {
	if up == nil {
		return nil
	}
	idx := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return i*n - i*(i-1)/2 + (j - i)
	}
	return func(i, j int) float64 { return up[idx(i, j)] }
}

// goldenBoard extracts one board through the library path.
func goldenBoard(b core.BoardSpec, withNetwork bool) (boardGolden, error) {
	res, err := b.ExtractCtx(context.Background())
	if err != nil {
		return boardGolden{}, err
	}
	nw := res.Network
	g := boardGolden{
		Name: b.Name, Fingerprint: b.Fingerprint()[:16],
		CTotal: nw.TotalCapacitance(), Nodes: nw.NumNodes(), Ports: nw.NumPorts,
	}
	if withNetwork {
		n := nw.NumNodes()
		g.Gamma = upper(n, nw.Gamma.At)
		g.C = upper(n, nw.C.At)
		if nw.G != nil {
			g.G = upper(n, nw.G.At)
		}
	}
	return g, nil
}

// writeGoldens regenerates the golden files from the corpora: every
// workload's, or only the named one's.
func writeGoldens(root, only string) error {
	for _, c := range []boardClass{denseClass, operatorClass, sweepClass} {
		if only != "" && only != c.name {
			continue
		}
		corp, err := c.corpus()
		if err != nil {
			return err
		}
		gf := goldenFile{Workload: c.name}
		for _, b := range corp {
			g, err := goldenBoard(b, c.name == sweepClass.name)
			if err != nil {
				return fmt.Errorf("golden %s: %w", b.Name, err)
			}
			gf.Boards = append(gf.Boards, g)
		}
		if err := saveGolden(root, &gf); err != nil {
			return err
		}
	}
	if only != "" && only != "ssn-cosim" {
		return nil
	}
	gf := goldenFile{Workload: "ssn-cosim"}
	for i := 0; i < ssnStrata*ssnPerStratum; i++ {
		sc := ssnCorpusScenario(i)
		out, _, err := runScenario(sc, nil)
		if err != nil {
			return fmt.Errorf("golden %s: %w", sc.Name, err)
		}
		gf.SSN = append(gf.SSN, ssnGolden{Name: sc.Name, Output: out})
	}
	return saveGolden(root, &gf)
}

// saveGolden writes one golden file, one corpus entry per line.
func saveGolden(root string, gf *goldenFile) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"workload\": %q,\n", gf.Workload)
	entries := []any{}
	key := "boards"
	for i := range gf.Boards {
		entries = append(entries, &gf.Boards[i])
	}
	if gf.SSN != nil {
		key = "ssn"
		for i := range gf.SSN {
			entries = append(entries, &gf.SSN[i])
		}
	}
	fmt.Fprintf(&buf, "%q: [\n", key)
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(entries)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	blob := buf.Bytes()
	if err := os.MkdirAll(filepath.Join(root, goldenDir), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root, gf.Workload), blob, 0o644)
}

// relClose reports |got − want| ≤ tol·scale.
func relClose(got, want, tol, scale float64) bool {
	return math.Abs(got-want) <= tol*scale && !math.IsNaN(got)
}

// checkExtraction compares one daemon extraction against its golden.
func checkExtraction(g *boardGolden, fingerprint string, ctotal float64, nodes, ports int) error {
	if fingerprint[:16] != g.Fingerprint {
		return fmt.Errorf("%s: board fingerprint %s does not match the golden's %s (corpus drifted)", g.Name, fingerprint[:16], g.Fingerprint)
	}
	if nodes != g.Nodes || ports != g.Ports {
		return fmt.Errorf("%s: %d nodes / %d ports, golden %d / %d", g.Name, nodes, ports, g.Nodes, g.Ports)
	}
	if !relClose(ctotal, g.CTotal, extractRelTol, math.Abs(g.CTotal)) {
		return fmt.Errorf("%s: c_total_f %.10g, golden %.10g (rel tol %g)", g.Name, ctotal, g.CTotal, extractRelTol)
	}
	return nil
}

// checkSSN compares one co-simulation against its golden.
func checkSSN(g *ssnGolden, out ssnOutcome) error {
	for _, pair := range []struct {
		what      string
		got, want map[string]float64
	}{{"ground bounce", out.Bounce, g.Output.Bounce}, {"rail droop", out.Droop, g.Output.Droop}} {
		if len(pair.got) != len(pair.want) {
			return fmt.Errorf("%s: %s for %d chips, golden %d", g.Name, pair.what, len(pair.got), len(pair.want))
		}
		for chip, want := range pair.want {
			got, ok := pair.got[chip]
			if !ok || !relClose(got, want, 1, ssnAbsTol+ssnRelTol*math.Abs(want)) {
				return fmt.Errorf("%s: chip %s %s %.9g V, golden %.9g V", g.Name, chip, pair.what, got, want)
			}
		}
	}
	return nil
}

// touchstonePoint is one parsed frequency row.
type touchstonePoint struct {
	freq float64
	s    [][]complex128
}

// parseTouchstone reads the daemon's Touchstone 1.x body (Hz, S, RI). Two-
// port rows use the historical S11 S21 S12 S22 order.
func parseTouchstone(text string, ports int) ([]touchstonePoint, float64, error) {
	var pts []touchstonePoint
	z0 := math.NaN()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "!"):
			continue
		case strings.HasPrefix(line, "#"):
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("touchstone option line %q", line)
			}
			z0 = v
			continue
		}
		f := strings.Fields(line)
		if len(f) != 1+2*ports*ports {
			return nil, 0, fmt.Errorf("touchstone row has %d columns for %d ports", len(f), ports)
		}
		nums := make([]float64, len(f))
		for i, x := range f {
			v, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("touchstone number %q", x)
			}
			nums[i] = v
		}
		p := touchstonePoint{freq: nums[0], s: make([][]complex128, ports)}
		for i := range p.s {
			p.s[i] = make([]complex128, ports)
		}
		for k := 0; k < ports*ports; k++ {
			i, j := k/ports, k%ports
			if ports == 2 {
				i, j = k%2, k/2
			}
			p.s[i][j] = complex(nums[1+2*k], nums[2+2*k])
		}
		pts = append(pts, p)
	}
	return pts, z0, sc.Err()
}

// refS evaluates the S matrix of a golden network at frequency f: the nodal
// admittance Y = jωC + Σ series R–L branches (L = −1/Γ_mk, R = −1/G_mk),
// port impedances from Y⁻¹, then S = (Z − z0)(Z + z0)⁻¹.
func refS(g *boardGolden, f, z0 float64) ([][]complex128, error) {
	n, np := g.Nodes, g.Ports
	gam, cap, cond := fullSym(n, g.Gamma), fullSym(n, g.C), fullSym(n, g.G)
	jw := complex(0, 2*math.Pi*f)
	y := make([][]complex128, n)
	for i := range y {
		y[i] = make([]complex128, n)
		for j := range y[i] {
			y[i][j] = jw * complex(cap(i, j), 0)
		}
	}
	for m := 0; m < n; m++ {
		for k := m + 1; k < n; k++ {
			gmk := gam(m, k)
			if gmk == 0 {
				continue
			}
			var r float64
			if cond != nil {
				if gg := cond(m, k); gg != 0 {
					r = -1 / gg
				}
			}
			yb := 1 / (complex(r, 0) + jw*complex(-1/gmk, 0))
			y[m][m] += yb
			y[k][k] += yb
			y[m][k] -= yb
			y[k][m] -= yb
		}
	}
	rhs := make([][]complex128, n)
	for i := range rhs {
		rhs[i] = make([]complex128, np)
		if i < np {
			rhs[i][i] = 1
		}
	}
	v, err := solveC(y, rhs)
	if err != nil {
		return nil, err
	}
	num := make([][]complex128, np)
	den := make([][]complex128, np)
	for i := 0; i < np; i++ {
		num[i] = make([]complex128, np)
		den[i] = make([]complex128, np)
		for j := 0; j < np; j++ {
			num[i][j], den[i][j] = v[i][j], v[i][j]
		}
		num[i][i] -= complex(z0, 0)
		den[i][i] += complex(z0, 0)
	}
	// S·den = num  ⇔  denᵀ·Sᵀ = numᵀ.
	dt := transpose(den)
	st, err := solveC(dt, transpose(num))
	if err != nil {
		return nil, err
	}
	return transpose(st), nil
}

func transpose(a [][]complex128) [][]complex128 {
	out := make([][]complex128, len(a[0]))
	for j := range out {
		out[j] = make([]complex128, len(a))
		for i := range a {
			out[j][i] = a[i][j]
		}
	}
	return out
}

// solveC solves A·X = B by Gaussian elimination with partial pivoting; A
// and B are overwritten.
func solveC(a, b [][]complex128) ([][]complex128, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv, best := col, cmplx.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a[r][col]); v > best {
				piv, best = r, v
			}
		}
		if !(best > 0) {
			return nil, fmt.Errorf("reference solve: singular at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			for c := range b[r] {
				b[r][c] -= f * b[col][c]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		for c := range b[r] {
			s := b[r][c]
			for k := r + 1; k < n; k++ {
				s -= a[r][k] * b[k][c]
			}
			b[r][c] = s / a[r][r]
		}
	}
	return b, nil
}

// checkSweep compares a daemon Touchstone body against S evaluated from the
// board's golden network at the requested frequencies. Entries are compared
// against the scale of their S matrix (passive S has unit scale), the same
// matrix-relative convention as the reduction's agreement contract.
func checkSweep(g *boardGolden, sw sweepSpec, text string) error {
	pts, z0, err := parseTouchstone(text, g.Ports)
	if err != nil {
		return fmt.Errorf("%s: %w", g.Name, err)
	}
	freqs := linSpace(sw.FMin, sw.FMax, sw.NF)
	if len(pts) != len(freqs) {
		return fmt.Errorf("%s: sweep returned %d points, want %d", g.Name, len(pts), len(freqs))
	}
	for k, p := range pts {
		if !relClose(p.freq, freqs[k], extractRelTol, freqs[k]) {
			return fmt.Errorf("%s: point %d at %g Hz, want %g Hz", g.Name, k, p.freq, freqs[k])
		}
		want, err := refS(g, freqs[k], z0)
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		scale := 0.0
		for i := range want {
			for j := range want[i] {
				scale = math.Max(scale, cmplx.Abs(want[i][j]))
			}
		}
		for i := range want {
			for j := range want[i] {
				if d := cmplx.Abs(p.s[i][j] - want[i][j]); !(d <= extractRelTol*scale) {
					return fmt.Errorf("%s: S%d%d at %g Hz is %v, golden network gives %v (|Δ| %.3g > %g × %.3g)",
						g.Name, i+1, j+1, freqs[k], p.s[i][j], want[i][j], d, extractRelTol, scale)
				}
			}
		}
	}
	return nil
}

// linSpace mirrors the daemon's frequency grid (n points, ends included).
func linSpace(f0, f1 float64, n int) []float64 {
	if n < 2 {
		return []float64{f0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f0 + (f1-f0)*float64(i)/float64(n-1)
	}
	return out
}
