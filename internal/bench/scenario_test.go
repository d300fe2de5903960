package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioExperimentsRegistered checks every named scenario shows up
// in the registry under the scenario_ prefix.
func TestScenarioExperimentsRegistered(t *testing.T) {
	ids := IDs()
	for _, sc := range scenario.All() {
		want := "scenario_" + sc.Name
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %s not registered (have %v)", want, ids)
		}
	}
}

func TestScenarioBenchQuick(t *testing.T) {
	s := QuickScale()
	tables, err := Run("scenario_burstcrash", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables", len(tables))
	}
	tb := tables[0]
	if tb.ID != "scenario_burstcrash" || len(tb.Rows) != 4 {
		t.Fatalf("table malformed: id=%s rows=%d", tb.ID, len(tb.Rows))
	}
	col := map[string]int{}
	for i, h := range tb.Header {
		col[h] = i
	}
	for i, phase := range []string{"cold", "burst", "aged", "restart"} {
		row := tb.Rows[i]
		if len(row) != len(tb.Header) || row[0] != phase {
			t.Fatalf("row %d = %v, want phase %s with %d cells", i, row, phase, len(tb.Header))
		}
		if got, want := row[col["ops"]], strconv.Itoa(s.Ops/4); got != want {
			t.Errorf("%s: ops cell %s, want %s", phase, got, want)
		}
		if parse(t, row[col["kops/s"]]) <= 0 {
			t.Errorf("%s: kops/s cell %s not positive", phase, row[col["kops/s"]])
		}
		if parse(t, row[col["p99(us)"]]) < parse(t, row[col["p95(us)"]]) {
			t.Errorf("%s: p99 %s below p95 %s", phase, row[col["p99(us)"]], row[col["p95(us)"]])
		}
	}
	if parse(t, tb.Rows[3][col["redone"]]) == 0 {
		t.Error("restart row redid no log entries")
	}
	requireByteStable(t, "scenario_burstcrash", s, tables)
	if !strings.Contains(strings.Join(tb.Notes, "\n"), "durability check") {
		t.Errorf("notes missing durability check: %v", tb.Notes)
	}
}

// TestRunRejectsUninstalledFaults checks that a fault program given to
// an experiment that would not install it fails, naming the experiment,
// instead of running fault-free.
func TestRunRejectsUninstalledFaults(t *testing.T) {
	s := QuickScale()
	s.Faults = "transient call=psync p=0.5"
	for _, id := range IDs() {
		if strings.HasPrefix(id, "scenario_") {
			continue
		}
		_, err := Run(id, s)
		if err == nil {
			t.Fatalf("%s ran with a fault program it does not install", id)
		}
		if !strings.Contains(err.Error(), strconv.Quote(id)) {
			t.Errorf("%s: error does not name the experiment: %v", id, err)
		}
	}
}

// TestScenarioBenchInstallsFaults checks a scenario experiment still runs
// under an ad-hoc fault program and reports it.
func TestScenarioBenchInstallsFaults(t *testing.T) {
	s := QuickScale()
	s.Faults = "seed=42; transient call=sync p=0.004; transient call=gang p=0.008"
	tables, err := Run("scenario_diurnal", s)
	if err != nil {
		t.Fatal(err)
	}
	if notes := strings.Join(tables[0].Notes, "\n"); !strings.Contains(notes, "fault program: \""+s.Faults+"\"") {
		t.Errorf("notes do not report the installed fault program: %v", tables[0].Notes)
	}
}
