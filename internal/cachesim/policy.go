package cachesim

import "fmt"

// Replacement policies. The paper's background (§2) notes that CPUs ship
// "different variations of Least Recently Used" — Ivy Bridge and later use
// adaptive/bimodal insertion to resist streaming scans. The model offers:
//
//	LRU  classic least-recently-used insertion at MRU (the default).
//	BIP  bimodal insertion: most fills enter at the LRU position and are
//	     evicted next unless re-referenced; every 32nd fill enters at MRU.
//	     Streams flush through one way while the resident set survives.
//	LIP  LRU-insertion-only (BIP with no MRU promotions on fill) — the
//	     most scan-resistant, slowest to adopt a new working set.
//
// Hits always promote to MRU under every policy.
type Policy int

const (
	// LRU inserts at MRU (classic).
	LRU Policy = iota
	// BIP inserts at LRU, promoting every 32nd fill to MRU.
	BIP
	// LIP always inserts at LRU.
	LIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case BIP:
		return "BIP"
	case LIP:
		return "LIP"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// bipEpsilonInverse is BIP's MRU-insertion rate (1/32, per Qureshi et al.).
const bipEpsilonInverse = 32

// SetPolicy selects the replacement policy. Safe to call on a live cache;
// existing lines keep their recency.
func (c *Cache) SetPolicy(p Policy) error {
	switch p {
	case LRU, BIP, LIP:
		c.policy = p
		return nil
	default:
		return fmt.Errorf("cachesim: unknown policy %d", int(p))
	}
}

// insertionAge returns the age stamp a fresh fill receives. Under LRU it
// is the current clock (MRU). Under LIP it is 0 (immediate eviction
// candidate). Under BIP it is 0 except for every 32nd insertion.
func (c *Cache) insertionAge() uint64 {
	switch c.policy {
	case LIP:
		return 0
	case BIP:
		c.bipCount++
		if c.bipCount%bipEpsilonInverse == 0 {
			return c.clock
		}
		return 0
	default:
		return c.clock
	}
}
