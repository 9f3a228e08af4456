package main

import "testing"

func TestParseFooter(t *testing.T) {
	cases := []struct {
		line string
		id   string
		secs float64
		ok   bool
	}{
		{"(F7 in 7.406s)", "F7", 7.406, true},
		{"(T1 in 0s)", "T1", 0, true},
		{"(F4 in 225ms)", "F4", 0.225, true},
		{"(F-TENANT in 1m2.5s)", "F-TENANT", 62.5, true},
		{"(F7 in 7.406s) trailing", "", 0, false},
		{"== F7: something (x in y) ==", "", 0, false},
		{"(F7 in soon)", "", 0, false},
		{"", "", 0, false},
	}
	for _, c := range cases {
		id, secs, ok := parseFooter(c.line)
		if id != c.id || secs != c.secs || ok != c.ok {
			t.Errorf("parseFooter(%q) = %q, %g, %v; want %q, %g, %v", c.line, id, secs, ok, c.id, c.secs, c.ok)
		}
	}
}

func TestCheckReproCountsMissingExperiments(t *testing.T) {
	res := &WorkloadResult{Correct: true}
	run := &reproRun{footers: map[string]float64{"T1": 0, "F4": 0.2}}
	checkRepro(res, []string{"T1", "F4", "F5"}, run)
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("missing footer: correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	res = &WorkloadResult{Correct: true}
	run.footers["F5"] = 0.1
	run.stderr = "reproduce: F6 failed: boom\n"
	checkRepro(res, []string{"T1", "F4", "F5"}, run)
	if res.Correct {
		t.Error("output on stderr must make the run incorrect")
	}
}
