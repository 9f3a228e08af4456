package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// ExperimentInfo describes one runnable experiment ID of the reproduce
// harness: the paper artifacts (tables/figures), ablations and
// extensions. The catalog is the single source of truth consumed by
// cmd/reproduce (-only validation, -list) and by internal/scenario
// (scenario-file validation), so scenario files and the CLI can never
// disagree about what exists.
type ExperimentInfo struct {
	// ID is the selector accepted by reproduce -only (upper case).
	ID string `json:"id"`
	// Kind is "paper" (runs by default), "ablation" or "extension"
	// (run with -all or when selected explicitly).
	Kind string `json:"kind"`
	// Title is a one-line description.
	Title string `json:"title"`
}

// catalog lists every experiment in the order cmd/reproduce runs them.
var catalog = []ExperimentInfo{
	{ID: "T1", Kind: "paper", Title: "Table 1: cache specification (Xeon E5-2667 v3)"},
	{ID: "F4", Kind: "paper", Title: "Fig 4: reverse-engineered Complex Addressing matrix"},
	{ID: "F5", Kind: "paper", Title: "Fig 5: access time from core 0 to each slice"},
	{ID: "F6", Kind: "paper", Title: "Fig 6: speedup of slice-aware allocation"},
	{ID: "F7", Kind: "paper", Title: "Fig 7: aggregate OPS vs per-core array size"},
	{ID: "F8", Kind: "paper", Title: "Fig 8: emulated KVS TPS"},
	{ID: "HR", Kind: "paper", Title: "§4.2: dynamic headroom distribution"},
	{ID: "F12", Kind: "paper", Title: "Fig 12: 64 B @ 1000 pps (no queueing)"},
	{ID: "F13", Kind: "paper", Title: "Fig 13: forwarding, campus mix @ 100 Gbps, RSS"},
	{ID: "F14", Kind: "paper", Title: "Fig 14: Router-NAPT-LB @ 100 Gbps, FlowDirector"},
	{ID: "T3", Kind: "paper", Title: "Table 3: throughput + improvement (derived from F13+F14)"},
	{ID: "F15", Kind: "paper", Title: "Fig 15: tail latency vs offered load + piecewise fit"},
	{ID: "F16", Kind: "paper", Title: "Fig 16: Skylake access times (18 slices)"},
	{ID: "T4", Kind: "paper", Title: "Table 4: preferable slices per core (Gold 6134)"},
	{ID: "F17", Kind: "paper", Title: "Fig 17: slice isolation vs CAT"},
	{ID: "A-DDIO", Kind: "ablation", Title: "DDIO way-count sweep"},
	{ID: "A-PLACE", Kind: "ablation", Title: "placement policy ablation"},
	{ID: "A-STEER", Kind: "ablation", Title: "NIC steering ablation"},
	{ID: "A-MULTI", Kind: "ablation", Title: "multi-slice spreading ablation"},
	{ID: "A-PF", Kind: "ablation", Title: "prefetcher ablation"},
	{ID: "A-RP", Kind: "ablation", Title: "replacement policy ablation"},
	{ID: "S6", Kind: "extension", Title: "CacheDirector on Skylake (SF non-inclusive)"},
	{ID: "S8V", Kind: "extension", Title: "large-value KVS placement"},
	{ID: "S8M", Kind: "extension", Title: "hot-key migration"},
	{ID: "S9C", Kind: "extension", Title: "page-coloring demo"},
	{ID: "S7H", Kind: "extension", Title: "VM isolation (§7 hypervisor)"},
	{ID: "S8S", Kind: "extension", Title: "shared-data placement"},
	{ID: "S4V", Kind: "extension", Title: "offset-targeted allocation"},
	{ID: "F-FAULTS", Kind: "extension", Title: "seeded fault-injection ablation"},
	{ID: "F-OVERLOAD", Kind: "extension", Title: "overload control past saturation (+ breaker storm)"},
}

// Catalog returns a copy of the experiment catalog in execution order.
func Catalog() []ExperimentInfo {
	out := make([]ExperimentInfo, len(catalog))
	copy(out, catalog)
	return out
}

// IsExperiment reports whether id (case-insensitive) names a catalog
// experiment.
func IsExperiment(id string) bool {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range catalog {
		if e.ID == id {
			return true
		}
	}
	return false
}

// ValidIDs returns every catalog ID, sorted, for error messages.
func ValidIDs() []string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// ValidateIDs normalizes ids (trim, upper-case) and returns an error
// naming every unknown entry together with the valid set. It is the
// shared check behind reproduce -only and scenario-file validation.
func ValidateIDs(ids []string) ([]string, error) {
	norm := make([]string, 0, len(ids))
	var unknown []string
	for _, id := range ids {
		u := strings.ToUpper(strings.TrimSpace(id))
		if u == "" {
			continue
		}
		if !IsExperiment(u) {
			unknown = append(unknown, u)
			continue
		}
		norm = append(norm, u)
	}
	if len(unknown) > 0 {
		return norm, fmt.Errorf("unknown experiment ID(s) %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(ValidIDs(), " "))
	}
	return norm, nil
}
