package workload

// FIRESTARTER payload generation (Section VIII). The real tool emits an
// assembly loop built from groups of four instructions (I1..I4) sized to
// the 16-byte fetch window, one group per cycle in the ideal case:
//
//	I1: packed-double FMA on registers (reg, mem) or a store to the
//	    group's cache level (L1, L2, L3);
//	I2: an FMA combinable with a load (L1, L2, L3, mem);
//	I3: a right shift;
//	I4: a xor (reg) or a pointer-increment add (L1, L2, L3, mem).
//
// Groups target each memory level at the published ratio
// (27.8 % reg, 62.7 % L1, 7.1 % L2, 0.8 % L3, 1.6 % mem), and the whole
// loop must overflow the micro-op cache while fitting the L1 instruction
// cache so the decoders stay busy. This file reproduces that
// construction; the Firestarter kernel's profile constants are derived
// from (and tested against) the generated payload.

import (
	"fmt"
)

// MemLevel is the memory level an instruction group targets.
type MemLevel int

const (
	LevelReg MemLevel = iota
	LevelL1
	LevelL2
	LevelL3
	LevelMem
)

func (l MemLevel) String() string {
	switch l {
	case LevelReg:
		return "reg"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// InstrClass is the role of one instruction inside a group.
type InstrClass int

const (
	FMAReg     InstrClass = iota // packed double FMA on registers
	FMAStore                     // FMA plus store to the level
	FMALoad                      // FMA combined with a load
	ShiftRight                   // right shift
	XorReg                       // xor (reg groups)
	AddPointer                   // add incrementing the level pointer
)

func (c InstrClass) String() string {
	switch c {
	case FMAReg:
		return "vfmadd (reg)"
	case FMAStore:
		return "vfmadd+store"
	case FMALoad:
		return "vfmadd+load"
	case ShiftRight:
		return "shr"
	case XorReg:
		return "xor"
	case AddPointer:
		return "add ptr"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Instr is one modeled instruction.
type Instr struct {
	Class InstrClass
	Bytes int // encoded length; four per group fill the 16 B fetch window
}

// Group is one 4-instruction fetch-window group.
type Group struct {
	Level  MemLevel
	Instrs [4]Instr
}

// FLOPs returns the double-precision FLOPs the group performs (256-bit
// packed double FMA = 4 lanes x 2 ops).
func (g Group) FLOPs() int {
	n := 0
	for _, in := range g.Instrs {
		switch in.Class {
		case FMAReg, FMAStore, FMALoad:
			n += 8
		}
	}
	return n
}

// BytesMoved returns the group's data traffic at its memory level (one
// 256-bit access per load/store instruction).
func (g Group) BytesMoved() int {
	if g.Level == LevelReg {
		return 0
	}
	n := 0
	for _, in := range g.Instrs {
		switch in.Class {
		case FMAStore, FMALoad:
			n += 32
		}
	}
	return n
}

// Payload is a generated stress loop.
type Payload struct {
	Groups []Group
}

// FSRatios is the published group mix.
var FSRatios = map[MemLevel]float64{
	LevelReg: FSGroupReg,
	LevelL1:  FSGroupL1,
	LevelL2:  FSGroupL2,
	LevelL3:  FSGroupL3,
	LevelMem: FSGroupMem,
}

// ICacheConstraints bound the loop size: it must overflow the micro-op
// cache (so the decoders keep working) yet fit the L1I cache.
type ICacheConstraints struct {
	UopCacheUops int // 1536 on Haswell
	L1IBytes     int // 32 KiB
	UopsPerGroup int // 4 instructions -> ~4 fused uops
	GroupBytes   int // 16-byte fetch window
}

// HaswellICache returns the Haswell front-end geometry.
func HaswellICache() ICacheConstraints {
	return ICacheConstraints{UopCacheUops: 1536, L1IBytes: 32 << 10, UopsPerGroup: 4, GroupBytes: 16}
}

// MinGroups/MaxGroups derive the legal loop-size window.
func (c ICacheConstraints) MinGroups() int { return c.UopCacheUops/c.UopsPerGroup + 1 }
func (c ICacheConstraints) MaxGroups() int { return c.L1IBytes / c.GroupBytes }

// GeneratePayload builds a deterministic loop of n groups at the
// published level mix, interleaving levels smoothly (Bresenham-style
// error accumulation) so the power draw stays constant within the loop.
// n is clamped into the legal window.
func GeneratePayload(c ICacheConstraints, n int) *Payload {
	if min := c.MinGroups(); n < min {
		n = min
	}
	if max := c.MaxGroups(); n > max {
		n = max
	}
	levels := []MemLevel{LevelReg, LevelL1, LevelL2, LevelL3, LevelMem}
	acc := make(map[MemLevel]float64, len(levels))
	p := &Payload{Groups: make([]Group, 0, n)}
	for i := 0; i < n; i++ {
		// Pick the level with the largest accumulated deficit.
		best := levels[0]
		bestDef := -1.0
		for _, l := range levels {
			acc[l] += FSRatios[l]
			if def := acc[l]; def > bestDef {
				best, bestDef = l, def
			}
		}
		acc[best] -= 1
		p.Groups = append(p.Groups, makeGroup(best))
	}
	return p
}

// makeGroup assembles the I1..I4 sequence for a level (the Section VIII
// construction).
func makeGroup(l MemLevel) Group {
	g := Group{Level: l}
	// I1: FMA on registers (reg, mem) or a store to the cache level.
	switch l {
	case LevelReg, LevelMem:
		g.Instrs[0] = Instr{Class: FMAReg, Bytes: 4}
	default:
		g.Instrs[0] = Instr{Class: FMAStore, Bytes: 4}
	}
	// I2: FMA with a load for anything that touches memory.
	if l == LevelReg {
		g.Instrs[1] = Instr{Class: FMAReg, Bytes: 4}
	} else {
		g.Instrs[1] = Instr{Class: FMALoad, Bytes: 4}
	}
	// I3: right shift.
	g.Instrs[2] = Instr{Class: ShiftRight, Bytes: 4}
	// I4: xor (reg) or pointer increment.
	if l == LevelReg {
		g.Instrs[3] = Instr{Class: XorReg, Bytes: 4}
	} else {
		g.Instrs[3] = Instr{Class: AddPointer, Bytes: 4}
	}
	return g
}

// Stats summarizes a payload.
type PayloadStats struct {
	Groups       int
	Bytes        int
	Uops         int
	LevelFrac    map[MemLevel]float64
	FLOPsPerLoop int
	// Traffic per instruction at the uncore-visible levels.
	L3BytesPerInst  float64
	MemBytesPerInst float64
	// FPInstrFrac is the fraction of instructions that are 256-bit ops.
	FPInstrFrac float64
	// MaxLevelRun is the longest run of consecutive same-level groups
	// (smooth interleaving keeps this small for the dominant levels).
	MaxLevelRun int
}

// Stats computes the payload's properties.
func (p *Payload) Stats() PayloadStats {
	st := PayloadStats{
		Groups:    len(p.Groups),
		LevelFrac: map[MemLevel]float64{},
	}
	counts := map[MemLevel]int{}
	fp := 0
	run, maxRun := 0, 0
	var prev MemLevel = -1
	l3bytes, membytes := 0, 0
	for _, g := range p.Groups {
		counts[g.Level]++
		st.Bytes += 16
		st.Uops += 4
		st.FLOPsPerLoop += g.FLOPs()
		for _, in := range g.Instrs {
			switch in.Class {
			case FMAReg, FMAStore, FMALoad:
				fp++
			}
		}
		switch g.Level {
		case LevelL3:
			l3bytes += g.BytesMoved()
		case LevelMem:
			membytes += g.BytesMoved()
		}
		if g.Level == prev {
			run++
		} else {
			run = 1
			prev = g.Level
		}
		if run > maxRun {
			maxRun = run
		}
	}
	n := float64(len(p.Groups))
	for l, c := range counts {
		st.LevelFrac[l] = float64(c) / n
	}
	inst := n * 4
	st.L3BytesPerInst = float64(l3bytes) / inst
	st.MemBytesPerInst = float64(membytes) / inst
	st.FPInstrFrac = float64(fp) / inst
	st.MaxLevelRun = maxRun
	return st
}

// DeriveProfile converts payload statistics into an execution profile,
// anchored at the measured IPC values (3.1 with HT, 2.8 without, at the
// Table IV operating point).
func (st PayloadStats) DeriveProfile() Profile {
	ref := ProfileOf(Firestarter(), 0)
	return Profile{
		IPC1:            ref.IPC1,
		IPC2:            ref.IPC2,
		AVXFrac:         st.FPInstrFrac,
		Activity:        1.0,
		L3BytesPerInst:  st.L3BytesPerInst,
		MemBytesPerInst: st.MemBytesPerInst,
		UncoreSens:      ref.UncoreSens,
		UncoreRefGHz:    ref.UncoreRefGHz,
	}
}

// FirestarterFromPayload builds a FIRESTARTER kernel whose profile is
// derived from an actual generated payload rather than the published
// summary constants.
func FirestarterFromPayload(p *Payload) Kernel {
	return Static("FIRESTARTER (generated payload)", p.Stats().DeriveProfile())
}
