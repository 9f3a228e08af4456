package main

// Example runs the program and pins what it prints, so tier-1 tests
// keep it working and its output from drifting.
func Example() {
	main()
	// Output:
	// slice-aware KVS; the workload's hot keys have shifted to ranks 8192+
	//   before migration: 223.5 cycles/request (14.32 M TPS)
	//   migrated 904 keys into slice 0 (copy cost 201671 cycles)
	//   after migration:  167.3 cycles/request (19.13 M TPS)
	//
	// the copy cost amortizes after ~3587 requests
}
