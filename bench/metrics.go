package main

// simMetrics names the per-layer metrics that are quantities of the
// simulated machine, not of the host: for a given seed they repeat exactly,
// and a change that moves one changed the model, not its speed.
var simMetrics = map[string]bool{
	"netsim.sim_p99_us":              true,
	"netsim.sim_gbps":                true,
	"dpdk.rx.pkts":                   true,
	"dpdk.rx.drop_share":             true,
	"llc.miss_ratio":                 true,
	"llc.ddio.fills":                 true,
	"llc.ddio.evict_unread":          true,
	"llc.ddio.first_touch_hit_ratio": true,
	"cpusim.cycles_per_pkt":          true,
	"cpusim.l1.hit_ratio":            true,
	"cpusim.l2.hit_ratio":            true,
	"cpusim.dram_ops_per_pkt":        true,
	"cachedirector.miss_share":       true,
	"kvs.get.cycles_per_op":          true,
	"kvs.set.cycles_per_op":          true,
}
