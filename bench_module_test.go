package repro

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the benchmark harness compiling against this
// tree. bench/ is a module of its own, so `go test ./...` here never
// builds it, and a change that breaks what it imports or calls would
// otherwise first show when the benchmark is run.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
