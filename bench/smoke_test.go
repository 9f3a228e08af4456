package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeHarness builds the programs under test into the checkout's
// .bench_build, as a real run does.
func smokeHarness(t *testing.T) *harness {
	t.Helper()
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{bin: filepath.Join(root, ".bench_build", "bin"), seed: 1, size: smokeSizing(), tmp: t.TempDir()}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPrograms(root, h.bin); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	return h
}

// TestSmoke runs every workload at about 1/20 size, traced and untraced,
// and holds the harness to BENCHMARK.json: the workloads and metric names
// it emits are exactly the ones listed, in both directions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reproduce and slicekvsd; skipped under -short")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout bytes.Buffer
	if code := run([]string{"-smoke", "-root", root, "-out", out}, &stdout); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, stdout.String())
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}

	var wantWL, gotWL, wantE2E, wantLayers []string
	for _, w := range man.Workloads {
		wantWL = append(wantWL, w.Name)
	}
	for _, d := range man.EndToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range man.PerLayer {
		wantLayers = append(wantLayers, d.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	layers := map[string]bool{}
	for _, res := range doc.Workloads {
		gotWL = append(gotWL, res.Name)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d: %v", res.Name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		if got := sortedKeys(res.EndToEnd); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s emits end-to-end metrics %v, BENCHMARK.json lists %v", res.Name, got, wantE2E)
		}
		for name, v := range res.EndToEnd {
			if v.Median == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", res.Name, name)
			}
		}
		for name := range res.PerLayer {
			layers[name] = true
		}
	}
	if strings.Join(gotWL, " ") != strings.Join(wantWL, " ") {
		t.Errorf("workloads run %v, BENCHMARK.json lists %v", gotWL, wantWL)
	}
	if got := sortedKeys(layers); strings.Join(got, " ") != strings.Join(wantLayers, " ") {
		t.Errorf("per-layer metrics emitted:\n%v\nBENCHMARK.json lists:\n%v", got, wantLayers)
	}
	if _, err := os.Stat(strings.TrimSuffix(out, ".json") + ".spans.json"); err != nil {
		t.Errorf("no span file beside the result document: %v", err)
	}
}

// TestRestartCheckCatchesLoss drives a journaled daemon, then hands the
// restart check a ledger claiming one more acked write than was made: the
// check must count the key as failed.
func TestRestartCheckCatchesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs slicekvsd; skipped under -short")
	}
	h := smokeHarness(t)
	walDir := t.TempDir()
	d, err := startDaemon(h, walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClient(serveSpec{name: "serve-write-wal", write: true}, d.addr, h.seed, 0, h.size.keys)
	if err != nil {
		d.kill()
		t.Fatal(err)
	}
	if err := c.drive(500, time.Time{}, true); err != nil || c.failed != 0 {
		d.kill()
		t.Fatalf("writes failed: %v, %d failed: %v", err, c.failed, c.problems)
	}
	c.close()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}

	honest := &serveRepeat{}
	h.size.sampleKeys = 2048
	if err := checkRecovered(h, walDir, c.ledger, honest); err != nil {
		t.Fatal(err)
	}
	if honest.failed != 0 || honest.attempted != 2048 {
		t.Fatalf("honest ledger: %d of %d keys failed: %v", honest.failed, honest.attempted, honest.problems)
	}
	// Claim an ack the daemon never gave, on every key the sample can reach.
	lying := map[uint64]uint64{}
	for rank := uint64(0); rank < h.size.keys; rank++ {
		lying[rank] = c.ledger[rank] + 1
	}
	caught := &serveRepeat{}
	if err := checkRecovered(h, walDir, lying, caught); err != nil {
		t.Fatal(err)
	}
	if caught.failed != caught.attempted || caught.failed == 0 {
		t.Errorf("lost-ack ledger: %d of %d keys flagged, want all", caught.failed, caught.attempted)
	}
}
