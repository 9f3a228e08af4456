package main

// Example runs the program and pins what it prints, so tier-1 tests
// keep it working and its output from drifting.
func Example() {
	main()
	// Output:
	// polling says physical address 0x40000000 lives in LLC slice 5
	//
	// core 0 prefers slice 0; farthest is slice 5
	//
	// slice 0: 34.0 cycles per LLC access (10.62 ns)
	// slice 5: 53.0 cycles per LLC access (16.56 ns)
	//
	// the gap between those two numbers is the hidden NUCA headroom slice-aware memory management unlocks (§2.2 / Fig 5a of the paper)
	//
	// --- telemetry: per-slice heat and drop causes ---
	// forwarded 3900 packets (38.0 Gbps achieved), dropped 100
	//
	// per-slice LLC heat over the run (from the uncore timeline):
	//   slice     lookups     misses       ddio      evict
	//   0             294          9       5092          0
	//   1             555          8       5328          0
	//   2             778         10       5399          0
	//   3             348          8       5164          0
	//   4             342          9       5221          0
	//   5             240          6       5111          0
	//   6             596          8       5623          0
	//   7             774         10       5645          0
	//
	// drop causes (from the flight recorder's side-log):
	//   wire     100
}
