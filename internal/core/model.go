package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/uarch"
)

// WindowCap is the instruction-window ceiling on the interval-length
// factor in Eq. 2 (the paper uses 128, the typical ROB scale).
const WindowCap = 128

// Params are the ten regression parameters b1..b10 of Equations 2, 3, 5.
type Params struct {
	B1  float64 // branch resolution: scale
	B2  float64 // branch resolution: interval-length exponent (power law)
	B3  float64 // branch resolution: FP-fraction factor
	B4  float64 // branch resolution: L1D-miss factor
	B5  float64 // MLP: scale
	B6  float64 // MLP: LLC-miss-rate exponent (power law)
	B7  float64 // MLP: D-TLB-miss-rate exponent (power law)
	B8  float64 // resource stall: scale (per-µop cycles)
	B9  float64 // resource stall: FP-fraction factor
	B10 float64 // resource stall: L1D-miss factor
}

func (p Params) slice() []float64 {
	return []float64{p.B1, p.B2, p.B3, p.B4, p.B5, p.B6, p.B7, p.B8, p.B9, p.B10}
}

// Slice returns the parameters in b1..b10 order, matching ParamNames.
// Callers that aggregate coefficients across fits (e.g. fit-stability
// over seeds) index the two in lockstep.
func (p Params) Slice() []float64 { return p.slice() }

// ParamNames returns the wire-stable names of the ten regression
// parameters, in the same order Slice reports their values.
func ParamNames() []string {
	return []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10"}
}

func paramsFromSlice(s []float64) Params {
	return Params{s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9]}
}

// Model is a fitted mechanistic-empirical performance model for one
// machine (and, implicitly, the workload population it was inferred
// from).
type Model struct {
	Machine uarch.ModelParams
	P       Params

	// ablation deactivates individual structural choices of Eqs. 2–4 for
	// the ablation studies; the zero value is the paper's full model.
	ablation ablation
}

// epsRate guards power laws against zero miss rates: a workload with no
// observed misses of a kind contributes a tiny, not infinite or zero,
// factor. (The paper does not discuss this corner; SPSS presumably
// handled it via its own parameter constraints.)
const epsRate = 1e-9

// BranchResolution evaluates Eq. 2: the predicted branch resolution time
// in cycles, a power law in the interval length (capped at the window
// size) with multiplicative FP and L1D-miss factors.
func (m *Model) BranchResolution(f Features) float64 {
	interval := WindowCap * 1.0
	if f.MpuBr > 1.0/WindowCap {
		interval = 1 / f.MpuBr
	} else if m.ablation.noWindowCap {
		interval = 1 / (f.MpuBr + epsRate)
	}
	if m.ablation.additiveBranch {
		// Ablated variant: additive instead of multiplicative factors
		// (the paper argues multiplication captures interactions — e.g.
		// L1D misses on an FP chain — with fewer parameters).
		return m.P.B1*math.Pow(interval, m.P.B2) + m.P.B3*f.FP + m.P.B4*f.MpuDL1
	}
	return m.P.B1 * math.Pow(interval, m.P.B2) *
		(1 + m.P.B3*f.FP) * (1 + m.P.B4*f.MpuDL1)
}

// MLP evaluates Eq. 3: the memory-level-parallelism correction factor, a
// power law in the LLC and D-TLB miss rates, clamped to at least 1 (a
// penalty cannot exceed the full memory latency).
func (m *Model) MLP(f Features) float64 {
	v := m.P.B5
	if !m.ablation.constantMLP {
		v *= math.Pow(f.MpuLLCD+epsRate, m.P.B6) *
			math.Pow(f.MpuDTLB+epsRate, m.P.B7)
	}
	if v < 1 {
		return 1
	}
	return v
}

// missCPI returns the total per-µop miss-event cycles (Eq. 6 normalized
// by N): every Eq. 1 term except base and resource stalls.
func (m *Model) missCPI(f Features) float64 {
	mc := &m.Machine
	mlp := m.MLP(f)
	cpi := f.MpuL1I * float64(mc.L2Lat)
	if mc.L3Lat > 0 {
		cpi += f.MpuL2I * float64(mc.L3Lat)
	}
	cpi += f.MpuLLCI * float64(mc.MemLat)
	cpi += f.MpuITLB * float64(mc.TLBLat)
	cpi += f.MpuBr * (m.BranchResolution(f) + float64(mc.FrontEndDepth))
	cpi += f.MpuLLCD * float64(mc.MemLat) / mlp
	cpi += f.MpuDTLB * float64(mc.TLBLat) / mlp
	return cpi
}

// ResourceStall evaluates Eqs. 4–6 per µop: the dispatch-stall cycles on
// a full ROB/issue queue, scaled down by the fraction of time already
// spent handling miss events.
func (m *Model) ResourceStall(f Features) float64 {
	return m.resourceStall(f, m.missCPI(f))
}

// resourceStall is ResourceStall given the workload's missCPI (Eq. 6,
// per µop), which PredictCPI has already computed.
func (m *Model) resourceStall(f Features, cmiss float64) float64 {
	cstall := m.P.B8 * (1 + m.P.B9*f.FP) * (1 + m.P.B10*f.MpuDL1) // Eq. 5 (per µop)
	if m.ablation.unscaledStall {
		return cstall
	}
	base := 1 / float64(m.Machine.DispatchWidth)
	scale := 1 - cmiss/(base+cstall)
	if scale < 0 {
		scale = 0
	}
	return scale * cstall // Eq. 4
}

// PredictCPI evaluates Eq. 1 normalized per µop.
func (m *Model) PredictCPI(f Features) float64 {
	cmiss := m.missCPI(f)
	return 1/float64(m.Machine.DispatchWidth) + cmiss + m.resourceStall(f, cmiss)
}

// PredictAll evaluates the model on each observation's features.
func (m *Model) PredictAll(obs []Observation) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = m.PredictCPI(o.Feat)
	}
	return out
}

// Stack returns the model's CPI stack for a workload — the paper's key
// deliverable: per-µop cycles attributed to each component, directly
// comparable to the simulator's ground-truth accounting (Figure 5). The
// components sum to PredictCPI.
func (m *Model) Stack(f Features) sim.Stack {
	mc := &m.Machine
	mlp := m.MLP(f)
	var s sim.Stack
	s.Cycles[sim.CompBase] = 1 / float64(mc.DispatchWidth)
	s.Cycles[sim.CompICacheL2] = f.MpuL1I * float64(mc.L2Lat)
	if mc.L3Lat > 0 {
		s.Cycles[sim.CompICacheL3] = f.MpuL2I * float64(mc.L3Lat)
	}
	s.Cycles[sim.CompICacheMem] = f.MpuLLCI * float64(mc.MemLat)
	s.Cycles[sim.CompITLB] = f.MpuITLB * float64(mc.TLBLat)
	s.Cycles[sim.CompBranch] = f.MpuBr * (m.BranchResolution(f) + float64(mc.FrontEndDepth))
	s.Cycles[sim.CompLLCLoad] = f.MpuLLCD * float64(mc.MemLat) / mlp
	s.Cycles[sim.CompDTLB] = f.MpuDTLB * float64(mc.TLBLat) / mlp
	s.Cycles[sim.CompResource] = m.ResourceStall(f)
	return s
}

// String summarizes the fitted parameters.
func (m *Model) String() string {
	p := m.P
	return fmt.Sprintf(
		"mecpi model (D=%d, cfe=%d, cL2=%d, cL3=%d, cmem=%d, cTLB=%d)\n"+
			"  branch: b1=%.4g b2=%.4g b3=%.4g b4=%.4g\n"+
			"  mlp:    b5=%.4g b6=%.4g b7=%.4g\n"+
			"  stall:  b8=%.4g b9=%.4g b10=%.4g",
		m.Machine.DispatchWidth, m.Machine.FrontEndDepth, m.Machine.L2Lat,
		m.Machine.L3Lat, m.Machine.MemLat, m.Machine.TLBLat,
		p.B1, p.B2, p.B3, p.B4, p.B5, p.B6, p.B7, p.B8, p.B9, p.B10)
}
