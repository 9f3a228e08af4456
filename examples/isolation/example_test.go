package main

// Example runs the program and pins what it prints, so tier-1 tests
// keep it working and its output from drifting.
func Example() {
	main()
	// Output:
	// main app: 2 MB working set on core 0; noisy neighbour streams 2×LLC on core 4
	//
	// NoCAT             exec time 0.383 ms   (DRAM rate 40.0%)
	// 2W Isolated       exec time 0.152 ms   (DRAM rate 1.4%)
	// Slice-0 Isolated  exec time 0.139 ms   (DRAM rate 3.2%)
	//
	// way isolation recovers   60.4% vs no isolation
	// slice isolation is a further 8.5% faster than 2-way CAT (Fig 17: ≈11%),
	// using 5% of the LLC instead of 18% — the local slice is simply closer
}
