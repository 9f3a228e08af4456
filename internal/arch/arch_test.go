package arch

import "testing"

func TestHaswellMatchesTable1(t *testing.T) {
	p := HaswellE52667v3()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Table 1 of the paper: LLC slice 2.5 MB / 20 ways / 2048 sets /
	// index bits 16-6; L2 256 kB / 8 / 512 / 14-6; L1 32 kB / 8 / 64 / 11-6.
	if got := p.LLCSlice.Sets(); got != 2048 {
		t.Errorf("LLC slice sets = %d, want 2048", got)
	}
	if hi, lo := p.LLCSlice.IndexBits(); hi != 16 || lo != 6 {
		t.Errorf("LLC index bits = %d-%d, want 16-6", hi, lo)
	}
	if got := p.L2.Sets(); got != 512 {
		t.Errorf("L2 sets = %d, want 512", got)
	}
	if hi, lo := p.L2.IndexBits(); hi != 14 || lo != 6 {
		t.Errorf("L2 index bits = %d-%d, want 14-6", hi, lo)
	}
	if got := p.L1D.Sets(); got != 64 {
		t.Errorf("L1 sets = %d, want 64", got)
	}
	if hi, lo := p.L1D.IndexBits(); hi != 11 || lo != 6 {
		t.Errorf("L1 index bits = %d-%d, want 11-6", hi, lo)
	}
	if got := p.LLCTotalBytes(); got != 8*2560<<10 {
		t.Errorf("LLC total = %d, want 20 MB", got)
	}
}

func TestSkylakeProfile(t *testing.T) {
	p := SkylakeGold6134()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Slices != 18 || p.Cores != 8 {
		t.Errorf("cores/slices = %d/%d, want 8/18", p.Cores, p.Slices)
	}
	if p.LLCMode != NonInclusive {
		t.Errorf("LLC mode = %v, want non-inclusive", p.LLCMode)
	}
	if p.L2.SizeBytes != 1<<20 {
		t.Errorf("L2 = %d bytes, want 1 MB", p.L2.SizeBytes)
	}
	if p.Interconnect != Mesh {
		t.Errorf("interconnect = %v, want mesh", p.Interconnect)
	}
}

func TestCyclesTimeRoundTrip(t *testing.T) {
	p := HaswellE52667v3()
	// 3.2 GHz: 1 cycle = 0.3125 ns; 5.12 ns (the 64 B @ 100 Gbps budget)
	// is ~16.4 cycles.
	if got := p.CyclesToNanos(32); got != 10 {
		t.Errorf("32 cycles = %v ns, want 10", got)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Profile)
	}{
		{"zero cores", func(p *Profile) { p.Cores = 0 }},
		{"zero slices", func(p *Profile) { p.Slices = 0 }},
		{"bad line size", func(p *Profile) { p.L1D.LineSize = 32 }},
		{"ddio zero", func(p *Profile) { p.DDIOWays = 0 }},
		{"ddio too many", func(p *Profile) { p.DDIOWays = p.LLCSlice.Ways + 1 }},
		{"pow2 flag wrong", func(p *Profile) { p.Slices = 6; p.PowerOfTwoSlices = true }},
		{"broken geometry", func(p *Profile) { p.L2.SizeBytes += 13 }},
	}
	for _, tc := range cases {
		p := HaswellE52667v3()
		tc.edit(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken profile", tc.name)
		}
	}
}

func TestInterconnectKindAndLLCModeStrings(t *testing.T) {
	if Ring.String() != "ring" || Mesh.String() != "mesh" {
		t.Errorf("kind strings: %q %q", Ring, Mesh)
	}
	if Inclusive.String() != "inclusive" || NonInclusive.String() != "non-inclusive" {
		t.Errorf("mode strings: %q %q", Inclusive, NonInclusive)
	}
	if InterconnectKind(9).String() == "" || LLCMode(9).String() == "" {
		t.Error("unknown values should still stringify")
	}
}
