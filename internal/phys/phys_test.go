package phys

import (
	"testing"
	"testing/quick"
)

func TestMapAndTranslate(t *testing.T) {
	s := NewSpace(4 << 30)
	m, err := s.MapHugepage1G()
	if err != nil {
		t.Fatal(err)
	}
	if m.PhysBase%PageSize1G != 0 {
		t.Errorf("hugepage phys base %#x not 1 GB aligned", m.PhysBase)
	}
	if m.Size != PageSize1G {
		t.Errorf("size = %d, want 1 GB", m.Size)
	}
	for _, off := range []uint64{0, 64, 4096, PageSize1G - 1} {
		pa, err := s.Translate(m.VirtBase + off)
		if err != nil {
			t.Fatalf("Translate(+%d): %v", off, err)
		}
		if pa != m.PhysBase+off {
			t.Errorf("Translate(+%d) = %#x, want %#x", off, pa, m.PhysBase+off)
		}
		if got := m.Phys(m.VirtBase + off); got != pa {
			t.Errorf("Mapping.Phys disagrees with pagemap at +%d", off)
		}
	}
}

func TestTranslateUnmapped(t *testing.T) {
	s := NewSpace(1 << 30)
	if _, err := s.Translate(0x1234); err == nil {
		t.Error("translation of unmapped address succeeded")
	}
	m, err := s.Map(PageSize2M, PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Translate(m.VirtBase + m.Size); err == nil {
		t.Error("translation one past the end succeeded")
	}
	if _, err := s.Translate(m.VirtBase - 1); err == nil {
		t.Error("translation one before the start succeeded")
	}
}

func TestMapExhaustion(t *testing.T) {
	s := NewSpace(2 << 30)
	if _, err := s.MapHugepage1G(); err != nil {
		t.Fatalf("first hugepage: %v", err)
	}
	// The 16 MB reserve plus alignment leaves room for at most one more.
	_, err := s.MapHugepage1G()
	if err != ErrOutOfMemory {
		t.Errorf("second hugepage: err = %v, want ErrOutOfMemory", err)
	}
}

func TestMapRejectsBadArgs(t *testing.T) {
	s := NewSpace(1 << 30)
	if _, err := s.Map(0, PageSize4K); err == nil {
		t.Error("zero-size map accepted")
	}
	if _, err := s.Map(4096, 12345); err == nil {
		t.Error("weird page size accepted")
	}
}

func TestMappingsDoNotOverlap(t *testing.T) {
	s := NewSpace(8 << 30)
	var ms []*Mapping
	for i := 0; i < 20; i++ {
		m, err := s.Map(uint64(4096*(i+1)), PageSize4K)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for i, a := range ms {
		for j, b := range ms {
			if i == j {
				continue
			}
			if a.VirtBase < b.VirtBase+b.Size && b.VirtBase < a.VirtBase+a.Size {
				t.Fatalf("virtual overlap between mapping %d and %d", i, j)
			}
			if a.PhysBase < b.PhysBase+b.Size && b.PhysBase < a.PhysBase+a.Size {
				t.Fatalf("physical overlap between mapping %d and %d", i, j)
			}
		}
	}
}

// Property: translation is a bijection offset-preserving within a mapping.
func TestTranslateOffsetPreserving(t *testing.T) {
	s := NewSpace(4 << 30)
	m, err := s.MapHugepage1G()
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint64) bool {
		off %= m.Size
		pa, err := s.Translate(m.VirtBase + off)
		return err == nil && pa-m.PhysBase == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMappingPhysPanicsOutside(t *testing.T) {
	s := NewSpace(1 << 30)
	m, err := s.Map(PageSize4K, PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Phys outside mapping did not panic")
		}
	}()
	m.Phys(m.VirtBase + m.Size)
}
