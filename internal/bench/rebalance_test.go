package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRebalanceBenchQuick(t *testing.T) {
	s := QuickScale()
	tables, err := Run("rebalance", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("table %s has %d rows, want 3", tb.ID, len(tb.Rows))
	}
	col := map[string]int{}
	for i, h := range tb.Header {
		col[h] = i
	}
	for i, phase := range []string{"before", "during", "after"} {
		row := tb.Rows[i]
		if len(row) != len(tb.Header) || row[0] != phase {
			t.Fatalf("row %d = %v, want phase %s with %d cells", i, row, phase, len(tb.Header))
		}
		if parse(t, row[col["kops_per_s"]]) <= 0 {
			t.Errorf("%s: kops_per_s cell %s not positive", phase, row[col["kops_per_s"]])
		}
		// Only the split's own phase streams keys; the remainder the
		// during-phase makespan cut short drains between the phases.
		moved := parse(t, row[col["migrated_keys"]])
		if (phase == "during") != (moved > 0) {
			t.Errorf("%s: migrated_keys %v", phase, moved)
		}
	}
	requireByteStable(t, "rebalance", s, tables)
}

// requireByteStable reruns experiment id and fails unless its tables
// marshal to the same bytes as the first run's: ci/check_baselines.sh
// compares the checked-in BENCH files with cmp.
func requireByteStable(t *testing.T, id string, s Scale, first []Table) {
	t.Helper()
	a, err := json.MarshalIndent(first, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(id, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(again, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s BENCH JSON not byte-stable across runs", id)
	}
}
