package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sizeShares draws n packets and returns the fractions below 100 B,
// below 500 B and the rest: the campus trace's three size buckets.
func sizeShares(g Generator, n int) (small, medium, large float64) {
	var s, m, l int
	for i := 0; i < n; i++ {
		switch size := g.Next().Size; {
		case size < 100:
			s++
		case size < 500:
			m++
		default:
			l++
		}
	}
	tot := float64(n)
	return float64(s) / tot, float64(m) / tot, float64(l) / tot
}

func TestCampusMixBuckets(t *testing.T) {
	g, err := NewCampusMix(rand.New(rand.NewSource(1)), 4096)
	if err != nil {
		t.Fatal(err)
	}
	small, medium, large := sizeShares(g, 200000)
	// The paper's campus trace: 26.9 % / 11.8 % / 61.3 %.
	if math.Abs(small-0.269) > 0.01 {
		t.Errorf("small fraction = %.3f, want ≈0.269", small)
	}
	if math.Abs(medium-0.118) > 0.01 {
		t.Errorf("medium fraction = %.3f, want ≈0.118", medium)
	}
	if math.Abs(large-0.613) > 0.01 {
		t.Errorf("large fraction = %.3f, want ≈0.613", large)
	}
}

func TestCampusMixSizesInRange(t *testing.T) {
	g, err := NewCampusMix(rand.New(rand.NewSource(2)), 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		p := g.Next()
		if p.Size < MinFrame || p.Size > MaxFrame {
			t.Fatalf("size %d outside [%d,%d]", p.Size, MinFrame, MaxFrame)
		}
		if p.FlowID >= 128 {
			t.Fatalf("flow %d out of range", p.FlowID)
		}
	}
	if len(g.flows) != 128 {
		t.Errorf("flows = %d", len(g.flows))
	}
}

func TestCampusMixFlowIdentityStable(t *testing.T) {
	g, err := NewCampusMix(rand.New(rand.NewSource(3)), 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]Packet{}
	for i := 0; i < 20000; i++ {
		p := g.Next()
		if prev, ok := seen[p.FlowID]; ok {
			if prev.SrcIP != p.SrcIP || prev.DstIP != p.DstIP ||
				prev.SrcPort != p.SrcPort || prev.DstPort != p.DstPort || prev.Proto != p.Proto {
				t.Fatalf("flow %d changed identity", p.FlowID)
			}
		} else {
			seen[p.FlowID] = p
		}
	}
	if len(seen) < 32 {
		t.Errorf("only %d of 64 flows appeared in 20000 packets", len(seen))
	}
}

func TestCampusMixFlowSkew(t *testing.T) {
	g, err := NewCampusMix(rand.New(rand.NewSource(4)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[g.Next().FlowID]++
	}
	if counts[0] <= counts[900] {
		t.Errorf("flow popularity not skewed: flow0=%d flow900=%d", counts[0], counts[900])
	}
}

func TestFixedSize(t *testing.T) {
	g, err := NewFixedSize(rand.New(rand.NewSource(5)), 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := g.Next()
		if p.Size != 64 {
			t.Fatalf("size %d", p.Size)
		}
		if p.FlowID >= 100 {
			t.Fatalf("flow %d", p.FlowID)
		}
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewCampusMix(rng, 0); err == nil {
		t.Error("zero flows accepted")
	}
	if _, err := NewFixedSize(rng, 32, 10); err == nil {
		t.Error("sub-minimum frame accepted")
	}
	if _, err := NewFixedSize(rng, 9000, 10); err == nil {
		t.Error("jumbo frame accepted")
	}
	if _, err := NewFixedSize(rng, 64, 0); err == nil {
		t.Error("zero flows accepted")
	}
}
