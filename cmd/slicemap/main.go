// Command slicemap explores the Complex Addressing of the simulated
// processors: it prints the ground-truth/recovered hash matrix, polls the
// slice of individual physical addresses the way §2.1 does, and dumps the
// per-(core,slice) access-latency table.
//
// Usage:
//
//	slicemap [-cpu haswell|skylake] [-addr 0x12340] [-lines 16] [-recover]
//	         [-cpuprofile F] [-memprofile F]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"sliceaware/internal/arch"
	"sliceaware/internal/chash"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/prof"
	"sliceaware/internal/reveng"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slicemap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpu := fs.String("cpu", "haswell", "architecture: haswell or skylake")
	addr := fs.Uint64("addr", 1<<30, "physical address to poll")
	lines := fs.Int("lines", 16, "consecutive lines to map from -addr")
	doRecover := fs.Bool("recover", false, "reverse-engineer the full hash matrix (haswell only)")
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	var profile *arch.Profile
	switch *cpu {
	case "haswell":
		profile = arch.HaswellE52667v3()
	case "skylake":
		profile = arch.SkylakeGold6134()
	default:
		fmt.Fprintf(stderr, "slicemap: unknown cpu %q\n", *cpu)
		return 2
	}
	if err := profFlags.Start(); err != nil {
		fmt.Fprintln(stderr, "slicemap:", err)
		return 1
	}
	defer profFlags.Stop()

	m, err := cpusim.NewMachine(profile)
	if err != nil {
		fmt.Fprintln(stderr, "slicemap:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s — %d cores, %d LLC slices (%s interconnect, %s LLC)\n\n",
		profile.Name, profile.Cores, profile.Slices, profile.Interconnect, profile.LLCMode)

	prober := reveng.NewProber(m, 0)
	prober.SetPolls(8)

	fmt.Fprintf(stdout, "Polled slice map from %#x (%d lines):\n", *addr, *lines)
	mapped, err := prober.MapRegion(*addr, uint64(*lines)*64, 1)
	if err != nil {
		fmt.Fprintln(stderr, "slicemap:", err)
		return 1
	}
	for i, s := range mapped {
		fmt.Fprintf(stdout, "  %#x → slice %d\n", *addr+uint64(i)*64, s)
	}
	fmt.Fprintln(stdout)

	// The table's columns are left-aligned, so each row is trimmed of the
	// padding after its last column.
	fmt.Fprintln(stdout, "Access-latency penalty (cycles over LLC base) per core × slice:")
	var cells strings.Builder
	endRow := func() {
		fmt.Fprintln(stdout, strings.TrimRight(cells.String(), " "))
		cells.Reset()
	}
	cells.WriteString("        ")
	for s := 0; s < profile.Slices; s++ {
		fmt.Fprintf(&cells, "S%-3d", s)
	}
	endRow()
	for c := 0; c < profile.Cores; c++ {
		fmt.Fprintf(&cells, "  C%-4d ", c)
		for s := 0; s < profile.Slices; s++ {
			fmt.Fprintf(&cells, "%-4d", m.Topo.Penalty(c, s))
		}
		endRow()
	}
	fmt.Fprintln(stdout)

	prefs := interconnect.Preferences(m.Topo)
	fmt.Fprintln(stdout, "Preferred slices per core (primary | secondary tier):")
	for _, p := range prefs {
		fmt.Fprintf(stdout, "  C%d: S%d |", p.Core, p.Primary)
		for _, s := range p.Secondary {
			fmt.Fprintf(stdout, " S%d", s)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout)

	if *doRecover {
		if !profile.PowerOfTwoSlices {
			fmt.Fprintln(stdout, "hash recovery: skipped — the matrix construction of §2.1 needs 2ⁿ slices")
			return 0
		}
		big, err := cpusim.NewMachineWithHashAndMemory(profile, m.LLC.Hash(), 512<<30)
		if err != nil {
			fmt.Fprintln(stderr, "slicemap:", err)
			return 1
		}
		p2 := reveng.NewProber(big, 0)
		p2.SetPolls(8)
		rec, err := reveng.RecoverXORHash(p2, profile.Slices, chash.AddressBits, rand.New(rand.NewSource(1)))
		if err != nil {
			fmt.Fprintln(stderr, "slicemap: recovery failed:", err)
			return 1
		}
		fmt.Fprintf(stdout, "Recovered hash matrix (verified %d/%d):\n", rec.Verified, rec.Checked)
		for o, row := range rec.Hash.Matrix() {
			fmt.Fprintf(stdout, "  o%d: ", o)
			for b := 6; b < chash.AddressBits; b++ {
				if row[b] {
					fmt.Fprint(stdout, "X")
				} else {
					fmt.Fprint(stdout, ".")
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
