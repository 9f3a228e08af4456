package cachesim

import "testing"

func TestPolicyAccessors(t *testing.T) {
	c := MustNew("t", 1, 4)
	if c.policy != LRU {
		t.Error("default policy not LRU")
	}
	if err := c.SetPolicy(BIP); err != nil || c.policy != BIP {
		t.Errorf("SetPolicy(BIP): %v, %v", err, c.policy)
	}
	if err := c.SetPolicy(Policy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, p := range []Policy{LRU, BIP, LIP, Policy(9)} {
		if p.String() == "" {
			t.Errorf("policy %d has empty name", int(p))
		}
	}
}

// scanSurvivors runs the classic scan-resistance scenario: a small hot set
// is established, then a long stream of single-use lines passes through.
// It returns how many hot lines survive.
func scanSurvivors(t *testing.T, p Policy) int {
	t.Helper()
	c := MustNew("t", 1, 8)
	if err := c.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	hot := []uint64{1, 2, 3, 4}
	for r := 0; r < 4; r++ {
		for _, l := range hot {
			if !c.Lookup(l, false) {
				c.Insert(l, false, AllWays)
			}
		}
	}
	// Stream 256 distinct lines with occasional hot re-references, as a
	// real workload would mix scans with its resident set.
	for i := uint64(0); i < 256; i++ {
		l := 1000 + i
		if !c.Lookup(l, false) {
			c.Insert(l, false, AllWays)
		}
		if i%8 == 0 {
			for _, h := range hot {
				if c.Contains(h) {
					c.Lookup(h, false) // refresh surviving hot lines
				}
			}
		}
	}
	n := 0
	for _, l := range hot {
		if c.Contains(l) {
			n++
		}
	}
	return n
}

func TestBIPResistsScans(t *testing.T) {
	lru := scanSurvivors(t, LRU)
	bip := scanSurvivors(t, BIP)
	lip := scanSurvivors(t, LIP)
	if lru != 0 {
		t.Errorf("LRU kept %d hot lines through a scan; expected 0 (thrashed)", lru)
	}
	if bip != 4 {
		t.Errorf("BIP kept %d/4 hot lines; expected full protection", bip)
	}
	if lip != 4 {
		t.Errorf("LIP kept %d/4 hot lines; expected full protection", lip)
	}
}

func TestBIPEventuallyAdoptsNewWorkingSet(t *testing.T) {
	c := MustNew("t", 1, 4)
	if err := c.SetPolicy(BIP); err != nil {
		t.Fatal(err)
	}
	// Fill with an old set, then insert a new set many times over: the
	// 1/32 MRU insertions must eventually let the new set in.
	for l := uint64(1); l <= 4; l++ {
		c.Insert(l, false, AllWays)
	}
	adopted := 0
	for r := 0; r < 64; r++ {
		for l := uint64(100); l < 104; l++ {
			if c.Lookup(l, false) {
				adopted++
			} else {
				c.Insert(l, false, AllWays)
			}
		}
	}
	if adopted == 0 {
		t.Error("BIP never adopted the new working set")
	}
}

func TestLIPHitsStillPromote(t *testing.T) {
	c := MustNew("t", 1, 2)
	if err := c.SetPolicy(LIP); err != nil {
		t.Fatal(err)
	}
	c.Insert(1, false, AllWays)
	c.Lookup(1, false) // promote to MRU
	c.Insert(2, false, AllWays)
	c.Insert(3, false, AllWays) // must evict 2 (age 0), not the promoted 1
	if !c.Contains(1) {
		t.Error("promoted line evicted under LIP")
	}
	if c.Contains(2) {
		t.Error("LRU-inserted line survived over the promoted one")
	}
}
