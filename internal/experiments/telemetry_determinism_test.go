package experiments

import (
	"bytes"
	"sync"
	"testing"

	"sliceaware/internal/telemetry"
)

// armed returns the quick environment with a fresh collector of its own.
func armed(cfg telemetry.Config) Env {
	env := quick
	env.Telemetry = telemetry.New(cfg)
	return env
}

// TestFigureTablesUnchangedByTelemetry holds the observation-only line:
// arming a collector on the experiment DuTs must leave every printed
// number byte-identical. Telemetry reads the simulated machine but never
// charges cycles, draws randomness, or reorders work — if this test
// fails, some instrumentation leaked into the simulation.
func TestFigureTablesUnchangedByTelemetry(t *testing.T) {
	t.Parallel()
	render := func(env Env) string {
		_, tab, err := Figure12(env)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	plain := render(quick)
	instrumented := render(armed(telemetry.Config{Shards: 8, SampleEvery: 1}))
	if plain != instrumented {
		t.Errorf("Figure12 table changed when telemetry was armed:\n--- without ---\n%s\n--- with ---\n%s",
			plain, instrumented)
	}
	if plain == "" {
		t.Fatal("empty table")
	}
}

// TestCollectorSeesExperimentTraffic is the counterpart: the armed
// collector actually observed the figure's packets (so the determinism
// above is not vacuous).
func TestCollectorSeesExperimentTraffic(t *testing.T) {
	t.Parallel()
	env := armed(telemetry.Config{Shards: 8})
	if _, _, err := Figure12(env); err != nil {
		t.Fatal(err)
	}
	c := env.Telemetry
	if c.Flight().Seq() == 0 {
		t.Error("collector observed no packets during Figure12")
	}
	var lookups uint64
	for _, ev := range c.Timeline().Totals() {
		lookups += ev.Lookups
	}
	if lookups == 0 {
		t.Error("timeline saw no LLC traffic during Figure12")
	}
}

// TestConcurrentExperimentsKeepTheirOwnTelemetry runs Figure12 and
// FigFaults at the same time, each on its own collector, and checks that
// each collector's Prometheus text and timeline are byte-identical to the
// ones a run on its own produces: a collector belongs to one experiment,
// so experiments that overlap cannot mix their metrics. Under -race it
// also checks that nothing the two share is written.
func TestConcurrentExperimentsKeepTheirOwnTelemetry(t *testing.T) {
	t.Parallel()
	figures := []func(Env) error{
		func(env Env) error { _, _, err := Figure12(env); return err },
		func(env Env) error { _, _, err := FigFaults(env); return err },
	}
	dump := func(env Env) []byte {
		var buf bytes.Buffer
		if err := env.Telemetry.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := env.Telemetry.Timeline().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := telemetry.Config{Shards: 8}

	alone := make([][]byte, len(figures))
	for i, run := range figures {
		env := armed(cfg)
		if err := run(env); err != nil {
			t.Fatal(err)
		}
		alone[i] = dump(env)
	}

	envs := make([]Env, len(figures))
	errs := make([]error, len(figures))
	var wg sync.WaitGroup
	for i, run := range figures {
		envs[i] = armed(cfg)
		envs[i].Jobs = 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(envs[i])
		}()
	}
	wg.Wait()
	for i := range figures {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := dump(envs[i]); !bytes.Equal(got, alone[i]) {
			t.Errorf("figure %d: telemetry of the concurrent run differs from the run alone:\n--- alone ---\n%s\n--- concurrent ---\n%s",
				i, alone[i], got)
		}
	}
}
