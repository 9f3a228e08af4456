package main

import (
	"fmt"
	"os"
)

// Example runs the command as README documents it, with a short polled
// map, and pins what it prints, so tier-1 tests keep it working and its
// output from drifting.
func Example() {
	if code := run([]string{"-cpu", "haswell", "-lines", "4", "-recover"}, os.Stdout, os.Stderr); code != 0 {
		fmt.Println("exit code", code)
	}
	// Output:
	// Intel Xeon E5-2667 v3 (Haswell) — 8 cores, 8 LLC slices (ring interconnect, inclusive LLC)
	//
	// Polled slice map from 0x40000000 (4 lines):
	//   0x40000000 → slice 5
	//   0x40000040 → slice 4
	//   0x40000080 → slice 7
	//   0x400000c0 → slice 6
	//
	// Access-latency penalty (cycles over LLC base) per core × slice:
	//         S0  S1  S2  S3  S4  S5  S6  S7
	//   C0    0   13  6   19  12  19  6   13
	//   C1    13  0   13  6   19  12  19  6
	//   C2    6   13  0   13  6   19  12  19
	//   C3    19  6   13  0   13  6   19  12
	//   C4    12  19  6   13  0   13  6   19
	//   C5    19  12  19  6   13  0   13  6
	//   C6    6   19  12  19  6   13  0   13
	//   C7    13  6   19  12  19  6   13  0
	//
	// Preferred slices per core (primary | secondary tier):
	//   C0: S0 | S2 S6
	//   C1: S1 | S3 S7
	//   C2: S2 | S0 S4
	//   C3: S3 | S1 S5
	//   C4: S4 | S2 S6
	//   C5: S5 | S3 S7
	//   C6: S6 | S0 S4
	//   C7: S7 | S1 S5
	//
	// Recovered hash matrix (verified 64/64):
	//   o0: X...X.X.X.XXX.X.X.XXXXX.X.XX.XX..
	//   o1: .X...X.X.X.X.XXXXXX.X.XX.X.XXX.X.
	//   o2: ..X...XX..X..X..XX..XX..XX..XXXXX
}
