package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a note") {
		t.Fatalf("rendering missing parts:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"fig2", "fig3", "fig3c", "fig4", "fig4c", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "tune", "ablation", "forest", "recovery"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if _, err := Run("nope", QuickScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// parse reads a numeric cell.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", cell)
	}
	return v
}

func TestFig2Shapes(t *testing.T) {
	tabs, err := Fig2(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	read := tabs[0]
	// 4KB latency must be < 2x the 2KB latency on every device
	// (package-level parallelism).
	for col := 1; col < len(read.Header); col++ {
		l2 := parse(t, read.Rows[0][col])
		l4 := parse(t, read.Rows[1][col])
		if l4 >= 2*l2 {
			t.Errorf("%s: 4KB latency %v not sublinear vs 2KB %v", read.Header[col], l4, l2)
		}
	}
	// Latency must grow with size overall.
	for col := 1; col < len(read.Header); col++ {
		first := parse(t, read.Rows[0][col])
		last := parse(t, read.Rows[len(read.Rows)-1][col])
		if last <= first {
			t.Errorf("%s: latency did not grow with I/O size", read.Header[col])
		}
	}
}

func TestFig3BandwidthScales(t *testing.T) {
	tabs, err := Fig3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		for col := 1; col < len(tab.Header); col++ {
			b1 := parse(t, tab.Rows[0][col])
			b64 := parse(t, tab.Rows[len(tab.Rows)-1][col])
			if b64 < 4*b1 {
				t.Errorf("%s %s: bandwidth gain %.1fx < 4x", tab.ID, tab.Header[col], b64/b1)
			}
		}
	}
}

func TestFig3cInterleavePenalty(t *testing.T) {
	tabs, err := Fig3c(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	// At the highest OutStd level, non-interleaved >= interleaved on every
	// device.
	last := tab.Rows[len(tab.Rows)-1]
	for col := 1; col < len(tab.Header); col += 2 {
		non := parse(t, last[col])
		inter := parse(t, last[col+1])
		if non < inter {
			t.Errorf("%s: interleaved faster (%v) than non-interleaved (%v)", tab.Header[col], inter, non)
		}
	}
}

func TestFig4SharedFileThreadCollapse(t *testing.T) {
	tabs, err := Fig4(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	shared := tabs[0]
	// At high OutStd, psync must beat threads on a shared file.
	last := shared.Rows[len(shared.Rows)-1]
	for col := 1; col < len(shared.Header); col += 2 {
		psync := parse(t, last[col])
		thread := parse(t, last[col+1])
		if psync < 2*thread {
			t.Errorf("shared file: psync %v not >> threads %v", psync, thread)
		}
	}
	// On separate files threads must be competitive (>= 50% of psync).
	separate := tabs[1]
	lastSep := separate.Rows[len(separate.Rows)-1]
	for col := 1; col < len(separate.Header); col += 2 {
		psync := parse(t, lastSep[col])
		thread := parse(t, lastSep[col+1])
		if thread < psync/2 {
			t.Errorf("separate files: threads %v below half of psync %v", thread, psync)
		}
	}
}

func TestFig4cContextSwitchGap(t *testing.T) {
	tabs, err := Fig4c(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	last := tab.Rows[len(tab.Rows)-1] // OutStd 32
	psync := parse(t, last[1])
	threads := parse(t, last[2])
	if threads < 10*psync {
		t.Errorf("context switch gap %vx, want >= 10x", threads/psync)
	}
}

func TestFig10PrangeNeverLoses(t *testing.T) {
	tabs, err := Fig10(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		for _, row := range tab.Rows {
			if sp := parse(t, row[3]); sp < 0.95 {
				t.Errorf("%s range %s: prange slower than legacy (%.2f)", tab.ID, row[0], sp)
			}
		}
		// The widest range should show a clear win.
		if sp := parse(t, tab.Rows[len(tab.Rows)-1][3]); sp < 1.5 {
			t.Errorf("%s: widest-range speedup only %.2f", tab.ID, sp)
		}
	}
}

func TestFig11InsertBeatsBtree(t *testing.T) {
	tabs, err := Fig11(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		var btIns float64
		var opq1Ins float64
		for _, row := range tab.Rows {
			if row[0] == "btree" {
				btIns = parse(t, row[1])
			}
			if row[0] == "1" {
				opq1Ins = parse(t, row[1])
			}
		}
		if btIns == 0 || opq1Ins == 0 {
			t.Fatalf("%s: missing rows", tab.ID)
		}
		if btIns < 2*opq1Ins {
			t.Errorf("%s: OPQ=1 insert speedup only %.1fx", tab.ID, btIns/opq1Ins)
		}
	}
}

// microScale is small enough to smoke-test the heavyweight index
// experiments inside the unit-test budget.
func microScale() Scale {
	return Scale{InitialEntries: 5_000, Ops: 500, MemBytes: 8 * 1024, Seed: 42}
}

func TestFig9Smoke(t *testing.T) {
	tabs, err := Fig9(microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("%d tables", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s empty", tab.ID)
		}
		for _, row := range tab.Rows {
			if parse(t, row[1]) <= 0 || parse(t, row[2]) <= 0 {
				t.Fatalf("%s: non-positive time in %v", tab.ID, row)
			}
		}
	}
}

func TestFig12Smoke(t *testing.T) {
	tabs, err := Fig12(microScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 5 {
			t.Fatalf("%s: %d rows", tab.ID, len(tab.Rows))
		}
		// PIO must beat BFTL in total on every ratio (the paper's weakest
		// baseline).
		for _, row := range tab.Rows {
			bftlTotal := parse(t, row[1]) + parse(t, row[2])
			pioTotal := parse(t, row[7]) + parse(t, row[8])
			if pioTotal > bftlTotal {
				t.Errorf("%s %s: PIO total %.2f above BFTL %.2f", tab.ID, row[0], pioTotal, bftlTotal)
			}
		}
	}
}

func TestFig13Smoke(t *testing.T) {
	tabs, err := Fig13a(microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 6 {
		t.Fatalf("fig13a rows = %d", len(tabs[0].Rows))
	}
	// PIO inserts must be far cheaper than the B+-tree's on every device.
	for r := 0; r+1 < len(tabs[0].Rows); r += 2 {
		btIns := parse(t, tabs[0].Rows[r][3])
		pioIns := parse(t, tabs[0].Rows[r+1][3])
		if pioIns > btIns {
			t.Errorf("row %d: PIO insert %.2f above btree %.2f", r, pioIns, btIns)
		}
	}
	tabs, err = Fig13b(microScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		if sp := parse(t, row[4]); sp < 1.0 {
			t.Errorf("fig13b %s threads=%s: PIO slower than B-link (%.2f)", row[0], row[1], sp)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	tabs, err := Ablations(microScale())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][2]float64{}
	for _, row := range tabs[0].Rows {
		rows[row[0]] = [2]float64{parse(t, row[1]), parse(t, row[2])}
	}
	if rows["psync-off"][0] <= rows["baseline"][0] {
		t.Errorf("psync-off inserts (%.2f) not slower than baseline (%.2f)",
			rows["psync-off"][0], rows["baseline"][0])
	}
	if rows["sorted-leaves"][0] < rows["baseline"][0] {
		t.Errorf("sorted-leaves inserts (%.2f) below baseline (%.2f)",
			rows["sorted-leaves"][0], rows["baseline"][0])
	}
}

func TestNodeSizeSmoke(t *testing.T) {
	tabs, err := NodeSize(microScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s: %d rows", tab.ID, len(tab.Rows))
		}
		marked := false
		for _, row := range tab.Rows {
			if row[4] != "" {
				marked = true
			}
		}
		if !marked {
			t.Fatalf("%s: utility/cost pick not marked", tab.ID)
		}
	}
}

func TestTuneProducesValidParams(t *testing.T) {
	tabs, err := Tune(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		l := parse(t, row[2])
		o := parse(t, row[3])
		if l < 1 || l > 16 || o < 1 {
			t.Errorf("tuned params out of range: L=%v O=%v", l, o)
		}
	}
}

// TestRecoveryGangFewerSubmissions: at 4 shards the ganged group commit
// must issue strictly fewer blocking log submissions than the per-shard
// baseline, and recovery after the crash must redo the committed tail.
func TestRecoveryGangFewerSubmissions(t *testing.T) {
	s := microScale()
	s.Shards = 4
	tabs, err := RecoveryBench(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 2 {
			t.Fatalf("%s: %d rows, want ganged + per-shard", tab.ID, len(tab.Rows))
		}
		var ganged, baseline float64
		for _, row := range tab.Rows {
			switch row[0] {
			case "ganged":
				ganged = parse(t, row[3])
				if parse(t, row[4]) == 0 {
					t.Errorf("%s: ganged mode issued no ganged log forces", tab.ID)
				}
			case "per-shard":
				baseline = parse(t, row[3])
				if parse(t, row[4]) != 0 {
					t.Errorf("%s: baseline issued ganged log forces", tab.ID)
				}
			}
		}
		if ganged >= baseline {
			t.Errorf("%s: ganged log submissions %.0f not fewer than per-shard %.0f",
				tab.ID, ganged, baseline)
		}
	}
}

func TestForestScalingShape(t *testing.T) {
	tabs, err := ForestScaling(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		base := parse(t, tab.Rows[0][2]) // one-shard forest elapsed
		// Some multi-shard configuration must beat the whole-index lock,
		// and at least one must have merged flushes into gang submissions.
		improved, merged := false, false
		for _, row := range tab.Rows[1:] {
			if parse(t, row[2]) < base {
				improved = true
			}
			if parse(t, row[5]) > 0 {
				merged = true
			}
		}
		if !improved {
			t.Errorf("%s: no shard count improved on the one-shard baseline", tab.ID)
		}
		if !merged {
			t.Errorf("%s: no gang submissions at any shard count", tab.ID)
		}
	}
}
