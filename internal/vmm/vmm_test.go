package vmm

import (
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
)

func newMachine(t *testing.T) *cpusim.Machine {
	t.Helper()
	m, err := cpusim.NewMachine(arch.SkylakeGold6134())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyStrings(t *testing.T) {
	if Shared.String() != "shared" || SliceIsolated.String() != "slice-isolated" {
		t.Error("policy strings broken")
	}
}

func TestAddVMValidation(t *testing.T) {
	h, err := New(newMachine(t), Shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM(VMConfig{Name: "a", Core: 0, WorkingSet: 0}); err == nil {
		t.Error("zero working set accepted")
	}
	if _, err := h.AddVM(VMConfig{Name: "a", Core: 99, WorkingSet: 1 << 20}); err == nil {
		t.Error("bad core accepted")
	}
	if _, err := h.AddVM(VMConfig{Name: "a", Core: 0, WorkingSet: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM(VMConfig{Name: "b", Core: 0, WorkingSet: 1 << 20}); err == nil {
		t.Error("double-booked core accepted")
	}
	if _, err := h.AddVM(VMConfig{Name: "a", Core: 1, WorkingSet: 1 << 20}); err == nil {
		t.Error("duplicate name accepted")
	}
	if len(h.vms) != 1 {
		t.Errorf("VMs = %d", len(h.vms))
	}
}

func TestSliceIsolatedPlacementDisjoint(t *testing.T) {
	m := newMachine(t)
	h, err := New(m, SliceIsolated)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.AddVM(VMConfig{Name: "a", Core: 0, WorkingSet: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AddVM(VMConfig{Name: "b", Core: 4, WorkingSet: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// 2 MB needs two 1.375 MB slices; 1 MB needs one.
	if na, nb := len(claimed(h, "a")), len(claimed(h, "b")); na != 1 || nb != 2 {
		t.Errorf("slice counts = %d/%d, want 1/2", na, nb)
	}
	// Every line of each VM maps into a slice it owns, so no slice serves
	// both.
	for _, vm := range []*VM{a, b} {
		for _, va := range vm.lines {
			pa, err := m.Space.Translate(va)
			if err != nil {
				t.Fatal(err)
			}
			if s := m.LLC.SliceOf(pa); h.ownedSlice[s] != vm.cfg.Name {
				t.Fatalf("VM %s line in slice %d, owned by %q", vm.cfg.Name, s, h.ownedSlice[s])
			}
		}
	}
}

// claimed lists the slices the hypervisor handed to the named VM.
func claimed(h *Hypervisor, name string) []int {
	var out []int
	for s, owner := range h.ownedSlice {
		if owner == name {
			out = append(out, s)
		}
	}
	return out
}

func TestOversizedVMGetsCappedAllotment(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(m, SliceIsolated)
	if err != nil {
		t.Fatal(err)
	}
	// 8 slices of 2.5 MB: a VM wanting 25 MB gets at most half the free
	// slices — its LLC footprint is bounded, leaving room for neighbours.
	if _, err := h.AddVM(VMConfig{Name: "big", Core: 0, WorkingSet: 25 << 20}); err != nil {
		t.Fatal(err)
	}
	if n := len(claimed(h, "big")); n == 0 || n > 4 {
		t.Errorf("oversized VM claimed %d slices, want 1..4", n)
	}
	if _, err := h.AddVM(VMConfig{Name: "small", Core: 1, WorkingSet: 1 << 20}); err != nil {
		t.Fatalf("neighbour could not be placed after a big VM: %v", err)
	}
	if len(claimed(h, "small")) == 0 {
		t.Error("neighbour got no slices")
	}
}

func TestRunValidation(t *testing.T) {
	h, err := New(newMachine(t), Shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(100); err == nil {
		t.Error("run with no VMs accepted")
	}
	if _, err := h.AddVM(VMConfig{Name: "a", Core: 0, WorkingSet: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(0); err == nil {
		t.Error("zero ops accepted")
	}
}

// The §7 payoff: a quiet VM beside a noisy VM runs faster when the
// hypervisor isolates slices.
func TestIsolationProtectsQuietVM(t *testing.T) {
	quietCost := func(policy Policy) float64 {
		m := newMachine(t)
		h, err := New(m, policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddVM(VMConfig{Name: "quiet", Core: 0, WorkingSet: 3 << 20}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddVM(VMConfig{Name: "noisy", Core: 4, WorkingSet: 64 << 20, Noisy: true}); err != nil {
			t.Fatal(err)
		}
		h.Warmup()
		res, err := h.Run(8000)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Name == "quiet" {
				return r.CyclesPerOp
			}
		}
		t.Fatal("quiet VM missing from results")
		return 0
	}
	shared := quietCost(Shared)
	isolated := quietCost(SliceIsolated)
	if isolated >= shared {
		t.Errorf("slice isolation did not protect the quiet VM: %.1f vs %.1f cycles/op", isolated, shared)
	}
}
