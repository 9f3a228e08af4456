package main

// Example runs the program and pins what it prints, so tier-1 tests
// keep it working and its output from drifting.
func Example() {
	main()
	// Output:
	// Router-NAPT-LB @ 100 Gbps offered, campus-mix trace, 8 cores, FlowDirector
	//
	// DPDK                throughput 71.37 Gbps   latency µs: p75=216.2 p90=298.6 p95=373.1 p99=497.3 mean=163.5
	// DPDK+CacheDirector  throughput 71.92 Gbps   latency µs: p75=204.0 p90=288.4 p95=358.2 p99=481.0 mean=154.3
	//
	// CacheDirector cuts the 99th-percentile tail by 16.3 µs (3.3%) — Fig 1/Fig 14 of the paper
}
