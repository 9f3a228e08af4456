package experiments

import (
	"strings"
	"testing"
)

func TestCatalogIDsUniqueAndWellFormed(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, e := range Catalog() {
		if e.ID == "" || e.ID != strings.ToUpper(e.ID) {
			t.Errorf("catalog ID %q must be non-empty upper case", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("catalog ID %q duplicated", e.ID)
		}
		seen[e.ID] = true
		switch e.Kind {
		case "paper", "ablation", "extension":
		default:
			t.Errorf("catalog ID %q has unknown kind %q", e.ID, e.Kind)
		}
		if len(e.Scales) == 0 {
			t.Errorf("catalog ID %q lists no scales", e.ID)
		}
		if e.Title == "" {
			t.Errorf("catalog ID %q has no title", e.ID)
		}
	}
}

func TestValidateIDs(t *testing.T) {
	t.Parallel()
	norm, err := ValidateIDs([]string{" t1", "f4", "F-TENANT", ""})
	if err != nil {
		t.Fatalf("ValidateIDs(valid set) = %v", err)
	}
	if got := strings.Join(norm, ","); got != "T1,F4,F-TENANT" {
		t.Fatalf("normalized = %q, want T1,F4,F-TENANT", got)
	}

	_, err = ValidateIDs([]string{"T1", "NOPE", "f99"})
	if err == nil {
		t.Fatal("ValidateIDs with unknown IDs succeeded")
	}
	for _, want := range []string{"NOPE", "F99", "valid:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestIsExperimentCaseInsensitive(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"t1", "T1", " f-overload "} {
		if !IsExperiment(id) {
			t.Errorf("IsExperiment(%q) = false", id)
		}
	}
	if IsExperiment("F999") {
		t.Error("IsExperiment(F999) = true")
	}
}
