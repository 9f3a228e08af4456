package main

// Example runs the program and pins what it prints, so tier-1 tests
// keep it working and its output from drifting.
func Example() {
	main()
	// Output:
	// emulated KVS: 131072 keys × 64 B values, single serving core, Zipf(0.99) GETs
	//
	// normal allocation   : 12.720 M TPS (252 cycles/request)
	// slice-aware (slice 0): 13.088 M TPS (244 cycles/request)
	//
	// slice-aware placement serves 2.9% more requests on the skewed workload
}
