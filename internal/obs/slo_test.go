package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sliceaware/internal/telemetry"
)

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("lat:*:20ms:0.99,avail:0:0.95", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 4 {
		t.Fatalf("got %d SLOs, want 4 (3 latency + 1 availability)", len(slos))
	}
	if slos[0].Kind != SLOLatency || slos[0].LatencyNs != 20e6 || slos[0].Target != 0.99 {
		t.Fatalf("first SLO = %+v", slos[0])
	}
	if slos[3].Kind != SLOAvailability || slos[3].Class != 0 {
		t.Fatalf("last SLO = %+v", slos[3])
	}
	if got, _ := ParseSLOs("", 4); got != nil {
		t.Fatalf("empty spec = %v, want nil", got)
	}
	for _, bad := range []string{
		"lat:*:20ms", "lat:9:20ms:0.99", "lat:*:xx:0.99", "lat:*:20ms:1.5",
		"avail:*", "avail:*:0", "frobnicate:*:0.9",
	} {
		if _, err := ParseSLOs(bad, 4); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}

// tickAvail builds an availability-only tick for class 0.
func tickAvail(errors, total uint64) []ClassTick {
	return []ClassTick{{Class: 0, Total: total, Errors: errors}}
}

func TestMonitorFiresAndResolves(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	m, err := NewMonitor(MonitorConfig{
		SLOs:          []SLO{{Kind: SLOAvailability, Class: 0, Target: 0.95}},
		Tick:          time.Second,
		FastWindow:    3 * time.Second,
		SlowWindow:    10 * time.Second,
		BurnThreshold: 2, // fires at ≥10% errors (budget 5%)
		Registry:      reg,
		MetricPrefix:  "kvsd",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy traffic: nothing fires.
	for i := 0; i < 5; i++ {
		if alerts := m.Tick(tickAvail(1, 100)); len(alerts) != 0 {
			t.Fatalf("healthy tick %d fired %v", i, alerts)
		}
	}

	// Overload: 50% errors. Burn = 10 ≥ 2 in both windows → fires once.
	var fired *AlertPayload
	for i := 0; i < 4 && fired == nil; i++ {
		for _, a := range m.Tick(tickAvail(50, 100)) {
			a := a
			fired = &a
		}
	}
	if fired == nil {
		t.Fatal("overload never fired the availability alert")
	}
	if fired.State != "firing" || fired.SLO != SLOAvailability || fired.FastBurn < 2 {
		t.Fatalf("alert = %+v", fired)
	}
	if m.Firing() != 1 || m.FiredTotal() != 1 {
		t.Fatalf("Firing=%d FiredTotal=%d, want 1/1", m.Firing(), m.FiredTotal())
	}

	// The gauge reflects the firing state on /metrics.
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), `kvsd_slo_alert{slo="availability",class="0"} 1`) {
		t.Fatalf("exposition lacks firing alert gauge:\n%s", prom.String())
	}

	// Staying bad keeps it firing without re-alerting.
	if alerts := m.Tick(tickAvail(50, 100)); len(alerts) != 0 {
		t.Fatalf("sustained overload re-alerted: %v", alerts)
	}

	// Recovery: idle ticks drain the fast window; the alert resolves even
	// while the slow window still remembers the storm.
	var resolved *AlertPayload
	for i := 0; i < 5 && resolved == nil; i++ {
		for _, a := range m.Tick(tickAvail(0, 0)) {
			a := a
			resolved = &a
		}
	}
	if resolved == nil || resolved.State != "resolved" {
		t.Fatalf("recovery never resolved the alert (got %+v)", resolved)
	}
	if m.Firing() != 0 {
		t.Fatalf("Firing = %d after resolve, want 0", m.Firing())
	}
	prom.Reset()
	reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), `kvsd_slo_alert{slo="availability",class="0"} 0`) {
		t.Fatal("alert gauge did not clear")
	}
}

func TestMonitorLatencySLO(t *testing.T) {
	bounds := []float64{1e6, 2e6, 4e6} // 1/2/4 ms
	m, err := NewMonitor(MonitorConfig{
		SLOs: []SLO{{Kind: SLOLatency, Class: 1, LatencyNs: 2e6, Target: 0.9}},
		Tick: time.Second, FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second,
		BurnThreshold: 3, // fires at ≥30% of OKs slower than 2ms
	})
	if err != nil {
		t.Fatal(err)
	}
	slowTick := []ClassTick{{
		Class: 1, Total: 100, Errors: 0, OKCount: 100,
		Bounds: bounds, OKBuckets: []uint64{10, 30, 40, 20},
	}}
	// 60% of OKs above 2ms → burn 6 ≥ 3: fires by the second tick.
	fired := false
	for i := 0; i < 3 && !fired; i++ {
		fired = len(m.Tick(slowTick)) > 0
	}
	if !fired {
		t.Fatal("latency SLO never fired on 60% violations")
	}
	// A single bad second among healthy traffic must NOT fire: the slow
	// window dilutes it below threshold (multi-window rationale).
	m2, _ := NewMonitor(MonitorConfig{
		SLOs: []SLO{{Kind: SLOLatency, Class: 1, LatencyNs: 2e6, Target: 0.9}},
		Tick: time.Second, FastWindow: 2 * time.Second, SlowWindow: 20 * time.Second,
		BurnThreshold: 3,
	})
	healthy := []ClassTick{{
		Class: 1, Total: 100, OKCount: 100,
		Bounds: bounds, OKBuckets: []uint64{90, 10, 0, 0},
	}}
	for i := 0; i < 18; i++ {
		if alerts := m2.Tick(healthy); len(alerts) != 0 {
			t.Fatalf("healthy tick fired %v", alerts)
		}
	}
	if alerts := m2.Tick(slowTick); len(alerts) != 0 {
		t.Fatalf("one bad second fired through the slow window: %v", alerts)
	}
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	if got := m.Tick(tickAvail(50, 100)); got != nil {
		t.Fatalf("nil monitor ticked to %v", got)
	}
	if m.Firing() != 0 || m.FiredTotal() != 0 {
		t.Fatal("nil monitor not inert")
	}
	// NewMonitor with no SLOs yields the nil monitor.
	m2, err := NewMonitor(MonitorConfig{})
	if err != nil || m2 != nil {
		t.Fatalf("NewMonitor(no SLOs) = %v, %v; want nil, nil", m2, err)
	}
}
