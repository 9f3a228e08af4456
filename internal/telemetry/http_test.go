package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandlerServesExposition(t *testing.T) {
	reg := NewRegistry(1)
	reg.Counter("demo_total", "a demo counter").Add(0, 41)
	reg.Counter("demo_total", "a demo counter").Inc(0)

	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "demo_total 42") {
		t.Errorf("exposition missing counter line:\n%s", body)
	}
}

func TestMetricsHandlerNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil registry: status = %d, want 200 with empty body", rec.Code)
	}
}

func TestStartMetricsServerRoundTrip(t *testing.T) {
	reg := NewRegistry(1)
	reg.GaugeL("live_gauge", "a live gauge", "").Set(7)
	s, err := StartMetricsServer("127.0.0.1:0", MetricsHandler(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + s.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "live_gauge 7") {
		t.Errorf("live exposition missing gauge:\n%s", body)
	}
}

func TestLabelledHistogramExposition(t *testing.T) {
	reg := NewRegistry(2)
	h0 := reg.HistogramL("req_latency_ns", "request latency", `class="0"`, []float64{10, 100})
	h3 := reg.HistogramL("req_latency_ns", "request latency", `class="3"`, []float64{10, 100})
	if h0 == h3 {
		t.Fatal("distinct label bodies returned the same histogram")
	}
	if again := reg.HistogramL("req_latency_ns", "request latency", `class="0"`, []float64{10, 100}); again != h0 {
		t.Fatal("same label body did not return the existing histogram")
	}
	h0.Observe(0, 5)
	h0.Observe(1, 50)
	h3.Observe(0, 500)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`req_latency_ns_bucket{class="0",le="10"} 1`,
		`req_latency_ns_bucket{class="0",le="100"} 2`,
		`req_latency_ns_bucket{class="0",le="+Inf"} 2`,
		`req_latency_ns_sum{class="0"} 55`,
		`req_latency_ns_count{class="0"} 2`,
		`req_latency_ns_bucket{class="3",le="+Inf"} 1`,
		`req_latency_ns_count{class="3"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family, not once per labelled series.
	if n := strings.Count(out, "# TYPE req_latency_ns histogram"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}
