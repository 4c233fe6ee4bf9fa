package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPayloadSizeWindow(t *testing.T) {
	c := HaswellICache()
	// "the stresstest loop has to be larger than the micro-op cache but
	// small enough for the L1 instruction cache."
	if c.MinGroups()*c.UopsPerGroup <= c.UopCacheUops {
		t.Fatalf("minimum loop (%d uops) does not overflow the uop cache (%d)",
			c.MinGroups()*c.UopsPerGroup, c.UopCacheUops)
	}
	if c.MaxGroups()*c.GroupBytes > c.L1IBytes {
		t.Fatalf("maximum loop (%d B) overflows L1I (%d B)",
			c.MaxGroups()*c.GroupBytes, c.L1IBytes)
	}
	// Clamping: requests outside the window land inside it.
	for _, n := range []int{0, 1, 100000} {
		p := GeneratePayload(c, n)
		g := len(p.Groups)
		if g < c.MinGroups() || g > c.MaxGroups() {
			t.Errorf("GeneratePayload(%d) -> %d groups outside [%d, %d]",
				n, g, c.MinGroups(), c.MaxGroups())
		}
	}
}

func TestPayloadRatiosMatchPaper(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	for level, want := range FSRatios {
		got := st.LevelFrac[level]
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%v fraction = %.4f, want %.4f (Section VIII mix)", level, got, want)
		}
	}
}

func TestPayloadGroupStructure(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 500)
	for i, g := range p.Groups {
		total := 0
		for _, in := range g.Instrs {
			total += in.Bytes
		}
		if total != 16 {
			t.Fatalf("group %d is %d bytes, want the 16-byte fetch window", i, total)
		}
		// I3 is always the shift; I4 is xor only for reg groups.
		if g.Instrs[2].Class != ShiftRight {
			t.Fatalf("group %d I3 = %v, want shr", i, g.Instrs[2].Class)
		}
		if g.Level == LevelReg {
			if g.Instrs[3].Class != XorReg || g.Instrs[0].Class != FMAReg {
				t.Fatalf("reg group %d malformed: %+v", i, g)
			}
		} else {
			if g.Instrs[3].Class != AddPointer {
				t.Fatalf("memory group %d I4 = %v, want add ptr", i, g.Instrs[3].Class)
			}
			if g.Instrs[1].Class != FMALoad {
				t.Fatalf("memory group %d I2 = %v, want FMA+load", i, g.Instrs[1].Class)
			}
		}
		// Stores only for cache levels, not reg/mem groups (I1 rule).
		if g.Level == LevelReg || g.Level == LevelMem {
			if g.Instrs[0].Class == FMAStore {
				t.Fatalf("group %d at %v has a store I1", i, g.Level)
			}
		} else if g.Instrs[0].Class != FMAStore {
			t.Fatalf("cache group %d I1 = %v, want FMA+store", i, g.Instrs[0].Class)
		}
	}
}

func TestPayloadInterleavingSmooth(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	// The Bresenham distribution keeps same-level runs short (constant
	// power pattern); the dominant L1 level can repeat a couple of
	// times, but long monocultures would defeat the design.
	if st.MaxLevelRun > 4 {
		t.Errorf("longest same-level run = %d, want smooth interleaving", st.MaxLevelRun)
	}
}

func TestPayloadDerivedProfileMatchesKernel(t *testing.T) {
	// The summary constants baked into Firestarter() must agree with a
	// profile derived from an actual generated payload.
	p := GeneratePayload(HaswellICache(), 1000)
	derived := p.Stats().DeriveProfile()
	ref := ProfileOf(Firestarter(), 0)
	if math.Abs(derived.L3BytesPerInst-ref.L3BytesPerInst) > 0.01 {
		t.Errorf("L3 traffic: derived %.4f vs kernel %.4f B/inst", derived.L3BytesPerInst, ref.L3BytesPerInst)
	}
	if math.Abs(derived.MemBytesPerInst-ref.MemBytesPerInst) > 0.01 {
		t.Errorf("DRAM traffic: derived %.4f vs kernel %.4f B/inst", derived.MemBytesPerInst, ref.MemBytesPerInst)
	}
	if math.Abs(derived.AVXFrac-ref.AVXFrac) > 0.02 {
		t.Errorf("FP fraction: derived %.3f vs kernel %.3f", derived.AVXFrac, ref.AVXFrac)
	}
	if err := derived.Validate(); err != nil {
		t.Fatal(err)
	}
	k := FirestarterFromPayload(p)
	if ProfileOf(k, 0) != derived {
		t.Error("kernel wrapper lost the derived profile")
	}
}

func TestPayloadFLOPDensity(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	// Every group carries two FMA-class instructions -> 16 FLOPs/group,
	// i.e. 4 FLOPs per instruction: "a high ratio of floating point
	// operations with frequent loads and stores".
	flopsPerInst := float64(st.FLOPsPerLoop) / float64(st.Groups*4)
	if flopsPerInst < 3.9 || flopsPerInst > 4.1 {
		t.Errorf("FLOPs/inst = %.2f, want ~4", flopsPerInst)
	}
	if st.FPInstrFrac < 0.45 || st.FPInstrFrac > 0.55 {
		t.Errorf("FP instruction fraction = %.2f, want ~0.5", st.FPInstrFrac)
	}
}

func TestPayloadDeterministicProperty(t *testing.T) {
	c := HaswellICache()
	f := func(n uint16) bool {
		a := GeneratePayload(c, int(n))
		b := GeneratePayload(c, int(n))
		if len(a.Groups) != len(b.Groups) {
			return false
		}
		for i := range a.Groups {
			if a.Groups[i] != b.Groups[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelAndClassStringers(t *testing.T) {
	for _, l := range []MemLevel{LevelReg, LevelL1, LevelL2, LevelL3, LevelMem, MemLevel(99)} {
		if l.String() == "" {
			t.Fatal("empty level string")
		}
	}
	for c := FMAReg; c <= AddPointer+1; c++ {
		if c.String() == "" {
			t.Fatal("empty class string")
		}
	}
}
