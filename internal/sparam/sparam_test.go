package sparam

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"

	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

func TestFromZKnownOnePort(t *testing.T) {
	// Z = 50 on a 50 Ω reference → S11 = 0; Z = 100 → S11 = 1/3; Z → ∞ → 1.
	cases := []struct {
		z    complex128
		want complex128
	}{
		{50, 0},
		{100, complex(1.0/3.0, 0)},
		{25, complex(-1.0/3.0, 0)},
		{complex(0, 50), complex(0, 1) * complex(0, 50-0) / 1 / complex(0, 1) /* placeholder below */},
	}
	for _, c := range cases[:3] {
		z := mat.CNew(1, 1)
		z.Set(0, 0, c.z)
		s, err := FromZ(z, 50)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(s.At(0, 0)-c.want) > 1e-12 {
			t.Fatalf("S11 for Z=%v: %v want %v", c.z, s.At(0, 0), c.want)
		}
	}
	// Purely reactive: |S11| = 1.
	z := mat.CNew(1, 1)
	z.Set(0, 0, complex(0, 50))
	s, err := FromZ(z, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(s.At(0, 0))-1) > 1e-12 {
		t.Fatalf("reactive |S11| = %g", cmplx.Abs(s.At(0, 0)))
	}
}

func TestFromZValidation(t *testing.T) {
	if _, err := FromZ(mat.CNew(2, 3), 50); err == nil {
		t.Fatal("non-square Z must error")
	}
	if _, err := FromZ(mat.CNew(1, 1), -50); err == nil {
		t.Fatal("negative reference must error")
	}
}

func TestSeriesImpedanceTwoPort(t *testing.T) {
	// A series impedance Zs between two 50 Ω ports has
	// S21 = 2·z0/(2·z0 + Zs). Use the known Z-matrix of a series element:
	// shunt path is open so Z = [[Zs… ]] is ill-defined; instead verify via
	// a Pi/T equivalent: a simple T with Za = Zb = 0, Zc = shunt Z:
	// Z = [[Zc, Zc],[Zc, Zc]] — a shunt impedance — S21 = 2Zc/(2Zc+z0).
	zc := complex(100, 0)
	z := mat.CNew(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z.Set(i, j, zc)
		}
	}
	s, err := FromZ(z, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * zc / (2*zc + 50)
	if cmplx.Abs(s.At(1, 0)-want) > 1e-12 {
		t.Fatalf("shunt S21 = %v want %v", s.At(1, 0), want)
	}
	// Reciprocity.
	if cmplx.Abs(s.At(0, 1)-s.At(1, 0)) > 1e-14 {
		t.Fatal("S must be reciprocal for a reciprocal Z")
	}
}

func TestDBAndPhase(t *testing.T) {
	if math.Abs(DB(complex(0.1, 0))+20) > 1e-12 {
		t.Fatalf("DB(0.1) = %g", DB(complex(0.1, 0)))
	}
	if ph := cmplx.Phase(complex(0, 1)) * 180 / math.Pi; math.Abs(ph-90) > 1e-12 {
		t.Fatalf("phase(j) = %g°", ph)
	}
}

func sweepFixture(t *testing.T) *Sweep {
	t.Helper()
	// A one-port RC: Z(ω) = 1/(jωC) + R.
	zAt := func(_ context.Context, omega float64) (*mat.CMatrix, error) {
		z := mat.CNew(1, 1)
		z.Set(0, 0, complex(10, 0)+1/(complex(0, omega*1e-12)))
		return z, nil
	}
	sw, err := SweepZCtx(context.Background(), LinSpace(1e9, 10e9, 10), 50, zAt)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSweepAndSeries(t *testing.T) {
	sw := sweepFixture(t)
	if len(sw.Points) != 10 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	freqs, db := sw.MagDBSeries(0, 0)
	if len(freqs) != 10 || len(db) != 10 {
		t.Fatal("series lengths")
	}
	if freqs[0] != 1e9 || freqs[9] != 10e9 {
		t.Fatalf("frequency axis: %v", freqs)
	}
	// A 10 Ω + series C one-port is passive.
	for _, pt := range sw.Points {
		if sigma := MaxSingularValue(pt.S); sigma > 1+1e-9 {
			t.Fatalf("RC one-port must be passive: σmax = %g at %g Hz", sigma, pt.Freq)
		}
	}
}

func TestTouchstoneFormat(t *testing.T) {
	sw := sweepFixture(t)
	ts, err := sw.Touchstone("pdnsim test")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ts, "! pdnsim test\n# HZ S RI R 50") {
		t.Fatalf("touchstone header:\n%s", ts[:60])
	}
	lines := strings.Split(strings.TrimSpace(ts), "\n")
	if len(lines) != 12 { // comment + option + 10 data lines
		t.Fatalf("touchstone line count = %d", len(lines))
	}
	// One-port data lines: freq + 2 numbers.
	if n := len(strings.Fields(lines[2])); n != 3 {
		t.Fatalf("data columns = %d", n)
	}
}

func TestTouchstoneTwoPortOrder(t *testing.T) {
	z := mat.CNew(2, 2)
	z.Set(0, 0, 50)
	z.Set(1, 1, 50)
	z.Set(0, 1, 10)
	z.Set(1, 0, 10)
	sw, err := SweepZCtx(context.Background(), []float64{1e9}, 50, func(context.Context, float64) (*mat.CMatrix, error) { return z, nil })
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sw.Touchstone("")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ts), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if len(fields) != 9 {
		t.Fatalf("2-port data columns = %d", len(fields))
	}
	if _, err := (&Sweep{Z0: 50}).Touchstone(""); err == nil {
		t.Fatal("empty sweep must error")
	}
}

func TestPassiveDetectsGain(t *testing.T) {
	s := mat.CNew(1, 1)
	s.Set(0, 0, 1.5) // active: |S| > 1
	sw := &Sweep{Z0: 50, Points: []Point{{Freq: 1e9, S: s}}}
	if err := sw.Verify(); !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("gain must fail the passivity screen, got %v", err)
	}
}

func TestTouchstoneRoundTrip(t *testing.T) {
	// Writer → reader round trip for 1-port and 2-port sweeps.
	for _, nPorts := range []int{1, 2, 3} {
		z := mat.CNew(nPorts, nPorts)
		for i := 0; i < nPorts; i++ {
			for j := 0; j < nPorts; j++ {
				z.Set(i, j, complex(40+float64(10*i+j), float64(i-j)))
			}
		}
		orig, err := SweepZCtx(context.Background(), LinSpace(1e9, 3e9, 4), 50, func(context.Context, float64) (*mat.CMatrix, error) { return z, nil })
		if err != nil {
			t.Fatal(err)
		}
		ts, err := orig.Touchstone("roundtrip")
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseTouchstone(ts, nPorts)
		if err != nil {
			t.Fatal(err)
		}
		if back.Z0 != 50 || len(back.Points) != len(orig.Points) {
			t.Fatalf("nPorts=%d: header/points lost: %+v", nPorts, back)
		}
		for k := range orig.Points {
			// The writer prints %.9e, so compare to that precision.
			if math.Abs(back.Points[k].Freq-orig.Points[k].Freq) > 1e-8*orig.Points[k].Freq {
				t.Fatalf("frequency mismatch at %d", k)
			}
			for i := range orig.Points[k].S.Data {
				if cmplx.Abs(back.Points[k].S.Data[i]-orig.Points[k].S.Data[i]) > 1e-9 {
					t.Fatalf("nPorts=%d entry %d differs", nPorts, i)
				}
			}
		}
	}
}

func TestParseTouchstoneErrors(t *testing.T) {
	cases := []struct {
		src    string
		nPorts int
	}{
		{"# HZ S RI R 50\n1e9 0 0\n", 0},    // bad port count
		{"# HZ S MA R 50\n1e9 0 0\n", 1},    // unsupported format
		{"# HZ S RI R fifty\n1e9 0 0\n", 1}, // bad z0
		{"# HZ S RI R 50\n1e9 0\n", 1},      // short data line
		{"# HZ S RI R 50\n1e9 x 0\n", 1},    // bad number
		{"1e9 0 0\n", 1},                    // missing option line
		{"# HZ S RI R 50\n", 1},             // no data
	}
	for _, c := range cases {
		if _, err := ParseTouchstone(c.src, c.nPorts); err == nil {
			t.Fatalf("expected error for %q", c.src)
		}
	}
}

func TestMaxSingularValue(t *testing.T) {
	// Diagonal matrix: spectral norm is the largest |entry|.
	s := mat.CNew(2, 2)
	s.Set(0, 0, complex(0, 0.3))
	s.Set(1, 1, 0.8)
	if sv := MaxSingularValue(s); math.Abs(sv-0.8) > 1e-9 {
		t.Fatalf("σmax = %g want 0.8", sv)
	}
	// A reflective passive 2-port: unitary up to loss, σmax ≤ 1. Build an
	// explicitly unitary matrix (rotation).
	u := mat.CNew(2, 2)
	u.Set(0, 0, complex(math.Cos(0.7), 0))
	u.Set(0, 1, complex(-math.Sin(0.7), 0))
	u.Set(1, 0, complex(math.Sin(0.7), 0))
	u.Set(1, 1, complex(math.Cos(0.7), 0))
	if sv := MaxSingularValue(u); math.Abs(sv-1) > 1e-9 {
		t.Fatalf("unitary σmax = %g want 1", sv)
	}
	if MaxSingularValue(mat.CNew(0, 0)) != 0 {
		t.Fatal("empty matrix")
	}
}

func TestLinSpace(t *testing.T) {
	f := LinSpace(0, 10, 11)
	if len(f) != 11 || f[0] != 0 || f[10] != 10 || f[5] != 5 {
		t.Fatalf("LinSpace = %v", f)
	}
	if f := LinSpace(3, 9, 1); len(f) != 1 || f[0] != 3 {
		t.Fatalf("degenerate LinSpace = %v", f)
	}
}

func TestValidateRange(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fmin, fmax float64
		nf         int
		ok         bool
	}{
		{"valid", 0.1e9, 10e9, 100, true},
		{"single point", 1e9, 1e9, 1, true},
		{"nf zero", 0.1e9, 10e9, 0, false},
		{"nf negative", 0.1e9, 10e9, -5, false},
		{"descending", 5e9, 1e9, 3, false},
		{"negative fmin", -1e9, 10e9, 100, false},
		{"zero fmin", 0, 10e9, 100, false},
		{"NaN fmin", math.NaN(), 10e9, 100, false},
		{"NaN fmax", 0.1e9, math.NaN(), 100, false},
		{"Inf fmax", 0.1e9, math.Inf(1), 100, false},
	} {
		err := ValidateRange(tc.fmin, tc.fmax, tc.nf)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, simerr.ErrBadInput) {
			t.Errorf("%s: want ErrBadInput, got %v", tc.name, err)
		}
	}
}

// The Touchstone reader is what the writer's round trip is checked
// against; the product only writes Touchstone.

// ParseTouchstone reads a Touchstone 1.x body produced by Touchstone (or any
// tool using Hz / S / RI format) back into a sweep. nPorts must be given
// (the file format encodes it only in the filename extension). 2-port files
// use the historical S11 S21 S12 S22 column order.
func ParseTouchstone(src string, nPorts int) (*Sweep, error) {
	if nPorts < 1 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: port count must be positive")
	}
	sw := &Sweep{Z0: 50}
	sawOption := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// Expect: # HZ S RI R <z0>
			if len(fields) < 5 || !strings.EqualFold(fields[1], "hz") ||
				!strings.EqualFold(fields[2], "s") || !strings.EqualFold(fields[3], "ri") {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: unsupported option line %q (need HZ S RI)", line)
			}
			z0, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: bad reference impedance in %q", line)
			}
			sw.Z0 = z0
			sawOption = true
			continue
		}
		fields := strings.Fields(line)
		want := 1 + 2*nPorts*nPorts
		if len(fields) != want {
			return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: line %d has %d columns, want %d for %d ports",
				ln+1, len(fields), want, nPorts)
		}
		nums := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: line %d: bad number %q", ln+1, f)
			}
			nums[i] = v
		}
		s := mat.CNew(nPorts, nPorts)
		if nPorts == 2 {
			order := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
			for k, ij := range order {
				s.Set(ij[0], ij[1], complex(nums[1+2*k], nums[2+2*k]))
			}
		} else {
			k := 0
			for i := 0; i < nPorts; i++ {
				for j := 0; j < nPorts; j++ {
					s.Set(i, j, complex(nums[1+2*k], nums[2+2*k]))
					k++
				}
			}
		}
		sw.Points = append(sw.Points, Point{Freq: nums[0], S: s})
	}
	if !sawOption || len(sw.Points) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: no option line or data found")
	}
	return sw, nil
}
