package cachesim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// LineSet agrees with a map on lines from the dense directory, across the
// dense limit and far above it, through Add, Remove, Has, Lines and
// Clear.
func TestLineSetMatchesMap(t *testing.T) {
	var s LineSet
	want := map[uint64]bool{}
	rng := rand.New(rand.NewSource(5))
	bases := []uint64{0, 1 << 20, pagesDenseLimit<<lineSetPageShift - 64, 1 << 50, ^uint64(0) - 127}
	for i := 0; i < 20000; i++ {
		if i == 15000 {
			s.Clear()
			want = map[uint64]bool{}
		}
		line := bases[rng.Intn(len(bases))] + uint64(rng.Intn(128))
		if rng.Intn(3) == 0 {
			if got := s.Remove(line); got != want[line] {
				t.Fatalf("Remove(%#x) = %v, want %v", line, got, want[line])
			}
			delete(want, line)
		} else if got := s.Add(line); got == want[line] {
			t.Fatalf("Add(%#x) = %v with the line present = %v", line, got, want[line])
		} else {
			want[line] = true
		}
		if probe := line ^ 1; s.Has(probe) != want[probe] || s.count != len(want) {
			t.Fatalf("Has(%#x) = %v, count %d; want %v, %d", probe, s.Has(probe), s.count, want[probe], len(want))
		}
	}
	var lines []uint64
	for l := range want {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	if got := s.Lines(nil); !reflect.DeepEqual(got, lines) {
		t.Errorf("Lines = %d lines, want %d in ascending order", len(got), len(lines))
	}
}
