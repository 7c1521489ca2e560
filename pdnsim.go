// Package pdnsim is an open-source reproduction of the DAC'98 paper
// "Electromagnetic Modeling and Signal Integrity Simulation of Power/Ground
// Networks in High Speed Digital Packages and Printed Circuit Boards"
// (F. Y. Yuan): a boundary-element extractor that turns power/ground plane
// geometry into distributed RLC equivalent circuits, an MNA circuit engine
// for time- and frequency-domain analysis, a multiconductor transmission
// line solver, a 2-D FDTD reference solver, and an integrated
// simultaneous-switching-noise co-simulation.
//
// This root package is the public facade: it re-exports the stable API of
// the internal packages so downstream users interact with one import path.
// The typical flow is
//
//	spec, _ := pdnsim.ParseBoard(jsonBytes)         // or build a BoardSpec in code
//	ctx := context.Background()                     // or a signal/timeout context
//	res, _ := spec.ExtractCtx(ctx)                  // mesh → BEM → equivalent circuit
//	z, _ := res.Network.Zin(0, 2*math.Pi*1e9)       // frequency domain
//	ckt := pdnsim.NewCircuit()                      // time domain co-simulation
//	ports, _ := res.Network.Attach(ckt, "plane")
//	...
//
// See the examples/ directory for complete programs and cmd/experiments for
// the reproduction of every figure in the paper.
package pdnsim

import (
	"context"

	"pdnsim/internal/bem"
	"pdnsim/internal/cavity"
	"pdnsim/internal/circuit"
	"pdnsim/internal/core"
	"pdnsim/internal/device"
	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/eye"
	"pdnsim/internal/fdtd"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/pkgmodel"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
	"pdnsim/internal/ssn"
	"pdnsim/internal/tline"
)

// Error taxonomy. Every error returned by the solve layer belongs to one of
// these classes; test with errors.Is and read structured detail with
// errors.As on the corresponding *Error types:
//
//	if errors.Is(err, pdnsim.ErrSingular) {
//	    var se *pdnsim.SingularError
//	    errors.As(err, &se) // se.Node names the offending circuit node
//	}
var (
	// ErrSingular marks a singular or numerically unfactorable system.
	ErrSingular = simerr.ErrSingular
	// ErrNonConvergence marks an iteration that exhausted its budget.
	ErrNonConvergence = simerr.ErrNonConvergence
	// ErrBadInput marks invalid user input (including recovered panics).
	ErrBadInput = simerr.ErrBadInput
	// ErrCancelled marks a run stopped by context cancellation or timeout.
	ErrCancelled = simerr.ErrCancelled
	// ErrNaN marks a non-finite value detected in a solution vector.
	ErrNaN = simerr.ErrNaN
	// ErrIllConditioned marks a system whose conditioning or physics
	// invariants (symmetry, passivity, stability margins) are too far gone
	// for the results to be trusted.
	ErrIllConditioned = simerr.ErrIllConditioned
)

// Structured error detail types (retrieve with errors.As).
type (
	// SingularError names the node/row where factorisation broke down.
	SingularError = simerr.SingularError
	// NonConvergenceError reports the iteration count and worst residual.
	NonConvergenceError = simerr.NonConvergenceError
	// BadInputError describes rejected input.
	BadInputError = simerr.BadInputError
	// CancelledError wraps the context error that stopped a run.
	CancelledError = simerr.CancelledError
	// NaNError reports the time point and first non-finite unknown.
	NaNError = simerr.NaNError
	// IllConditionedError reports the quantity, value and limit of a failed
	// numerical-trust check.
	IllConditionedError = simerr.IllConditionedError
	// SolveStats counts Newton iterations, retries and timestep halvings of
	// a transient run (TranResult.Stats).
	SolveStats = circuit.SolveStats
)

// Physical constants (SI).
const (
	Eps0 = greens.Eps0 // vacuum permittivity, F/m
	Mu0  = greens.Mu0  // vacuum permeability, H/m
	C0   = greens.C0   // speed of light, m/s
)

// Geometry.
type (
	// Point is a 2-D point (metres).
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a simple polygon.
	Polygon = geom.Polygon
	// Shape is a polygon with holes describing one plane's copper.
	Shape = geom.Shape
)

// RectShape builds a rectangular plane shape.
func RectShape(x0, y0, w, h float64) Shape { return geom.RectShape(x0, y0, w, h) }

// LShape builds an L-shaped plane (outline minus a corner notch).
func LShape(w, h, notchW, notchH float64) Shape { return geom.LShape(w, h, notchW, notchH) }

// SplitPlanes builds two complementary nets sharing one layer (paper Fig. 1).
func SplitPlanes(w, h, splitX, gap float64) (left, right Shape) {
	return geom.SplitPlanes(w, h, splitX, gap)
}

// Meshing.
type (
	// Mesh is a quadrilateral plane discretisation.
	Mesh = mesh.Mesh
	// MeshStats summarises a discretisation.
	MeshStats = mesh.Stats
)

// GridMesh meshes a shape into nx×ny boundary elements. Degenerate shapes
// that panic inside the geometry kernel surface as ErrBadInput.
func GridMesh(s Shape, nx, ny int) (m *Mesh, err error) {
	defer simerr.RecoverInto(&err, "pdnsim: GridMesh")
	return mesh.Grid(s, nx, ny)
}

// Green's functions and BEM.
type (
	// Kernel is a layered-media quasi-static Green's function.
	Kernel = greens.Kernel
	// KernelMode selects the stackup model.
	KernelMode = greens.KernelMode
	// BEMOptions configure matrix assembly.
	BEMOptions = bem.Options
	// Assembly holds the BEM operators of a meshed plane.
	Assembly = bem.Assembly
)

// Kernel modes.
const (
	FreeSpace  = greens.FreeSpace
	OverGround = greens.OverGround
	Microstrip = greens.Microstrip
)

// NewKernel builds a Green's function kernel for a conductor at height h
// over its return plane in a dielectric epsR.
func NewKernel(mode KernelMode, h, epsR float64, nImages int) (*Kernel, error) {
	return greens.NewKernel(mode, h, epsR, nImages)
}

// DefaultBEMOptions returns the recommended assembly configuration.
func DefaultBEMOptions() BEMOptions { return bem.DefaultOptions() }

// AssembleCtx fills the BEM matrices for a meshed plane. The panel-integral
// loops check ctx periodically and return an ErrCancelled-class error once
// it is done.
func AssembleCtx(ctx context.Context, m *Mesh, k *Kernel, opts BEMOptions) (*Assembly, error) {
	return bem.AssembleCtx(ctx, m, k, opts)
}

// Extraction.
type (
	// Network is an extracted N-node RLC equivalent circuit.
	Network = extract.Network
	// NetworkBranch is one R-L‖C branch of the equivalent circuit.
	NetworkBranch = extract.Branch
	// ExtractOptions tune the port reduction.
	ExtractOptions = extract.Options
)

// ExtractNetworkCtx reduces an assembled plane to its equivalent circuit,
// checking ctx at each reduction stage.
func ExtractNetworkCtx(ctx context.Context, a *Assembly, opts ExtractOptions) (*Network, error) {
	return extract.ExtractCtx(ctx, a, opts)
}

// Foster-chain macromodels (exact model-order reduction of a lossless
// driving-point impedance).
type (
	// FosterModel is a synthesised reactance chain.
	FosterModel = extract.Foster
	// FosterTank is one parallel L-C section.
	FosterTank = extract.FosterTank
)

// Board-level pipeline (JSON-facing).
type (
	// BoardSpec is a JSON-loadable plane description (mm units).
	BoardSpec = core.BoardSpec
	// PortSpec places a named connection on a BoardSpec.
	PortSpec = core.PortSpec
	// ShapeSpec describes the plane outline of a BoardSpec.
	ShapeSpec = core.ShapeSpec
	// ExtractResult bundles mesh, assembly and network of one run.
	ExtractResult = core.Result
)

// ParseBoard decodes and validates a JSON board description.
func ParseBoard(data []byte) (*BoardSpec, error) { return core.ParseBoard(data) }

// Circuit engine.
type (
	// Circuit is an MNA netlist.
	Circuit = circuit.Circuit
	// Waveform is a time-dependent source value.
	Waveform = circuit.Waveform
	// DC is a constant source value.
	DC = circuit.DC
	// Pulse is the SPICE-style pulse waveform.
	Pulse = circuit.Pulse
	// PWL is a piecewise-linear waveform.
	PWL = circuit.PWL
	// Sine is a sinusoidal waveform.
	Sine = circuit.Sine
	// ACSource is a small-signal stimulus.
	ACSource = circuit.ACSource
	// TranOptions configure a transient run.
	TranOptions = circuit.TranOptions
	// TranResult holds transient waveforms.
	TranResult = circuit.Result
	// ACResult holds one AC solution.
	ACResult = circuit.ACResult
	// Method selects the integration scheme.
	Method = circuit.Method
	// MOSFET is a level-1 transistor.
	MOSFET = circuit.MOSFET
	// Diode is an exponential junction diode.
	Diode = circuit.Diode
)

// Integration schemes and the ground node.
const (
	Trapezoidal   = circuit.Trapezoidal
	BackwardEuler = circuit.BackwardEuler
	Ground        = circuit.Ground
)

// NewCircuit returns an empty netlist.
func NewCircuit() *Circuit { return circuit.New() }

// NewPWL validates and builds a piecewise-linear waveform.
func NewPWL(t, v []float64) (PWL, error) { return circuit.NewPWL(t, v) }

// Transmission lines.
type (
	// TLineGeometry describes a multiconductor microstrip cross-section.
	TLineGeometry = tline.Geometry
	// TLineStrip is one conductor of the cross-section.
	TLineStrip = tline.Strip
	// TLineParams are extracted per-unit-length matrices.
	TLineParams = tline.Params
)

// SolveTLine extracts per-unit-length L/C matrices with the 2-D MoM solver.
func SolveTLine(g TLineGeometry) (*TLineParams, error) { return tline.Solve(g) }

// FDTD reference solver.
type (
	// FDTDSim is a 2-D plane-pair FDTD simulation.
	FDTDSim = fdtd.Sim
	// FDTDPort is a resistive Thevenin port.
	FDTDPort = fdtd.Port
	// FDTDRunOptions configure an FDTD run: step, duration, checkpoints.
	FDTDRunOptions = fdtd.RunOptions
)

// NewFDTD builds a plane-pair FDTD simulation.
func NewFDTD(s Shape, nx, ny int, d, epsR, rsq float64) (*FDTDSim, error) {
	return fdtd.New(s, nx, ny, d, epsR, rsq)
}

// Analytic cavity model.
type (
	// CavityModel is the closed-form rectangular plane-pair impedance.
	CavityModel = cavity.Model
)

// NewCavity builds an analytic cavity model.
func NewCavity(a, b, d, epsR float64) (m *CavityModel, err error) {
	defer simerr.RecoverInto(&err, "pdnsim: NewCavity")
	return cavity.New(a, b, d, epsR)
}

// S-parameters.
type (
	// SSweep is an S-parameter frequency sweep.
	SSweep = sparam.Sweep
	// SPoint is one frequency point of a sweep.
	SPoint = sparam.Point
)

// SweepSCtx computes S-parameters from a per-frequency impedance evaluator.
// ctx is checked at each frequency point and threaded into the impedance
// evaluation itself (use Network.PortZCtx as zAt so a hung point is
// cancellable mid-solve).
func SweepSCtx(ctx context.Context, freqs []float64, z0 float64, zAt func(ctx context.Context, omega float64) (*CMatrix, error)) (*SSweep, error) {
	return sparam.SweepZCtx(ctx, freqs, z0, zAt)
}

// LinSpace returns n evenly spaced values from f0 to f1.
func LinSpace(f0, f1 float64, n int) []float64 { return sparam.LinSpace(f0, f1, n) }

// Devices and packages.
type (
	// CMOSParams size a transistor-level driver.
	CMOSParams = device.CMOSParams
	// RampParams size a behavioural driver.
	RampParams = device.RampParams
	// IVTable is an IBIS-style I/V table.
	IVTable = device.IVTable
	// Pin holds package pin parasitics.
	Pin = pkgmodel.Pin
)

// Preset package pins.
var (
	QFPPin      = pkgmodel.QFPPin
	BGAPin      = pkgmodel.BGAPin
	WirebondPin = pkgmodel.WirebondPin
)

// SSN co-simulation.
type (
	// SSNBoard describes the plane pair of an SSN study.
	SSNBoard = ssn.Board
	// SSNChip places a component.
	SSNChip = ssn.Chip
	// SSNDecap is a decoupling capacitor.
	SSNDecap = ssn.Decap
	// SSNVRM is the regulator connection.
	SSNVRM = ssn.VRM
	// SSNSystem is a built co-simulation.
	SSNSystem = ssn.System
	// SSNReport summarises one run.
	SSNReport = ssn.Report
)

// Driver kinds for SSN chips.
const (
	SSNRampDriver = ssn.RampDriver
	SSNCMOSDriver = ssn.CMOSDriver
	SSNIBISDriver = ssn.IBISDriver
)

// BuildSSN assembles the integrated co-simulation.
func BuildSSN(b SSNBoard, vrm SSNVRM, chips []SSNChip, decaps []SSNDecap) (s *SSNSystem, err error) {
	defer simerr.RecoverInto(&err, "pdnsim: BuildSSN")
	return ssn.Build(b, vrm, chips, decaps)
}

// Decap optimisation (paper §6.2's "optimize the decoupling strategy").
type (
	// DecapCandidate is a mountable capacitor option for the optimiser.
	DecapCandidate = ssn.DecapCandidate
	// OptimizeSpec configures a greedy decap placement run.
	OptimizeSpec = ssn.OptimizeSpec
	// OptimizeResult reports the chosen decap population.
	OptimizeResult = ssn.OptimizeResult
)

// OptimizeDecaps greedily places decoupling capacitors to drive the PDN
// impedance at an observation port below a target mask. ctx cancels the
// plane extraction and the candidate search.
func OptimizeDecaps(ctx context.Context, spec OptimizeSpec) (*OptimizeResult, error) {
	return ssn.OptimizeDecaps(ctx, spec)
}

// Driver/receiver building blocks.
type (
	// DriverSchedule tells a behavioural driver when its output is high.
	DriverSchedule = device.Schedule
)

// AddRampDriver attaches a behavioural switch driver between die rails.
func AddRampDriver(c *Circuit, name string, out, vdd, vss int, high DriverSchedule, p RampParams) error {
	return device.AddRampDriver(c, name, out, vdd, vss, high, p)
}

// AddCMOSDriver attaches a transistor-level inverter driver.
func AddCMOSDriver(c *Circuit, name string, out, vdd, vss int, gate Waveform, p CMOSParams) error {
	return device.AddCMOSDriver(c, name, out, vdd, vss, gate, p)
}

// PeriodicSchedule returns a repeating high-window schedule.
func PeriodicSchedule(delay, width, period float64) DriverSchedule {
	return device.PeriodicSchedule(delay, width, period)
}

// Eye-diagram analysis.
type (
	// EyeResult is a measured eye opening.
	EyeResult = eye.Result
)

// AnalyzeEye folds a transient waveform at the bit period and measures the
// eye opening between the given logic levels.
func AnalyzeEye(t, v []float64, period, vLow, vHigh, skip float64) (*EyeResult, error) {
	return eye.Analyze(t, v, period, vLow, vHigh, skip)
}

// PRBS returns a deterministic pseudo-random bit pattern.
func PRBS(n int, seed int64) []bool { return eye.PRBS(n, seed) }

// BitWaveform builds a PWL waveform from a bit pattern.
func BitWaveform(bits []bool, period, edge, vLow, vHigh float64) (PWL, error) {
	return eye.BitWaveform(bits, period, edge, vLow, vHigh)
}

// Numerical-trust diagnostics. Pipeline stages record every invariant
// check, auto-repair and conditioning estimate in a Diagnostics collector
// attached to their results (ExtractResult.Diagnostics(), TranResult.Diag,
// SSweep.Diag, FDTD Result.Diag); render it with Diagnostics.Render.
type (
	// Diagnostics is a thread-safe collector of trust-check records.
	Diagnostics = diag.Diagnostics
	// Diagnostic is one recorded check: stage, severity, margin, repair.
	Diagnostic = diag.Diagnostic
	// DiagSeverity grades a diagnostic: info, warning or error.
	DiagSeverity = diag.Severity
)

// Diagnostic severities.
const (
	DiagInfo    = diag.Info
	DiagWarning = diag.Warning
	DiagError   = diag.Error
)

// NewDiagnostics returns an empty diagnostics collector.
func NewDiagnostics() *Diagnostics { return diag.New() }

// SolveRefined factors a (equilibrated if beneficial) and solves ax=b with
// residual-based iterative refinement, returning the solution and the final
// relative residual ‖b−ax‖∞/(‖a‖∞‖x‖∞+‖b‖∞).
func SolveRefined(a *Matrix, b []float64) (x []float64, relres float64, err error) {
	return mat.SolveRefined(a, b)
}

// CMatrix is the dense complex matrix used for port impedance/scattering
// quantities (an alias of the internal linear-algebra type).
type CMatrix = mat.CMatrix

// Matrix is the dense real matrix type.
type Matrix = mat.Matrix
