// Package integration runs cross-index differential tests: the four index
// structures (PIO B-tree, B+-tree, BFTL, FD-tree) execute the same random
// workloads against a shared in-memory model, and their relative simulated
// timings are checked against the paper's headline relationships.
package integration

import (
	"math/rand"
	"testing"

	"repro/internal/bftl"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/fdtree"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// index is the common surface all four structures expose for the test.
type index interface {
	Insert(at vtime.Ticks, r kv.Record) (vtime.Ticks, error)
	Search(at vtime.Ticks, k kv.Key) (kv.Value, bool, vtime.Ticks, error)
}

// deleter is implemented with different signatures; adapters unify it.
type adapters struct {
	name   string
	ins    func(at vtime.Ticks, r kv.Record) (vtime.Ticks, error)
	del    func(at vtime.Ticks, k kv.Key) (vtime.Ticks, error)
	search func(at vtime.Ticks, k kv.Key) (kv.Value, bool, vtime.Ticks, error)
	rng    func(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error)
	fini   func(at vtime.Ticks) (vtime.Ticks, error)
}

func newPagefile(t *testing.T, pageSize int) *pagefile.PageFile {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	f, err := ssdio.NewSpace(dev).Create("idx", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pagefile.New(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func buildAll(t *testing.T) []adapters {
	t.Helper()
	const ps = 1024

	pioT, err := core.New(newPagefile(t, ps), core.Config{
		PageSize: ps, LeafSegs: 2, OPQPages: 1, PioMax: 16, SPeriod: 64,
		BCnt: 128, BufferBytes: 8 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	btT, err := btree.New(newPagefile(t, ps), btree.Config{NodeSize: ps, BufferBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	bfT, err := bftl.New(newPagefile(t, ps), bftl.Config{PageSize: ps, Fanout: 32, CommitPolicy: 3})
	if err != nil {
		t.Fatal(err)
	}
	fdT, err := fdtree.New(newPagefile(t, ps), fdtree.Config{PageSize: ps, HeadPages: 2, SizeRatio: 4})
	if err != nil {
		t.Fatal(err)
	}

	return []adapters{
		{
			name:   "pio",
			ins:    pioT.Insert,
			del:    pioT.Delete,
			search: pioT.Search,
			rng:    pioT.RangeSearch,
			fini:   func(at vtime.Ticks) (vtime.Ticks, error) { return pioT.FlushBatch(at, 0) },
		},
		{
			name: "btree",
			ins:  btT.Insert,
			del: func(at vtime.Ticks, k kv.Key) (vtime.Ticks, error) {
				_, at, err := btT.Delete(at, k)
				return at, err
			},
			search: btT.Search,
			rng:    btT.RangeSearch,
			fini:   func(at vtime.Ticks) (vtime.Ticks, error) { return at, nil },
		},
		{
			name: "bftl",
			ins:  bfT.Insert,
			del: func(at vtime.Ticks, k kv.Key) (vtime.Ticks, error) {
				_, at, err := bfT.Delete(at, k)
				return at, err
			},
			search: bfT.Search,
			rng:    bfT.RangeSearch,
			fini:   func(at vtime.Ticks) (vtime.Ticks, error) { return at, nil },
		},
		{
			name:   "fdtree",
			ins:    fdT.Insert,
			del:    fdT.Delete,
			search: fdT.Search,
			rng:    fdT.RangeSearch,
			fini:   func(at vtime.Ticks) (vtime.Ticks, error) { return at, nil },
		},
	}
}

// TestDifferentialAllIndexes drives all four indexes through one random
// workload and verifies every index agrees with the model on every probe.
func TestDifferentialAllIndexes(t *testing.T) {
	idxs := buildAll(t)
	model := make(map[kv.Key]kv.Value)
	rng := rand.New(rand.NewSource(99))
	clocks := make([]vtime.Ticks, len(idxs))

	type probe struct {
		k    kv.Key
		want kv.Value
		ok   bool
	}
	for step := 0; step < 4000; step++ {
		k := uint64(rng.Intn(800)) * 3
		switch rng.Intn(5) {
		case 0: // delete
			if _, ok := model[k]; ok {
				delete(model, k)
				for i := range idxs {
					var err error
					clocks[i], err = idxs[i].del(clocks[i], k)
					if err != nil {
						t.Fatalf("%s: delete: %v", idxs[i].name, err)
					}
				}
			}
		default: // insert/overwrite
			v := uint64(step)
			model[k] = v
			for i := range idxs {
				var err error
				clocks[i], err = idxs[i].ins(clocks[i], kv.Record{Key: k, Value: v})
				if err != nil {
					t.Fatalf("%s: insert: %v", idxs[i].name, err)
				}
			}
		}
		if step%100 == 0 {
			p := probe{k: uint64(rng.Intn(800)) * 3}
			p.want, p.ok = model[p.k]
			for i := range idxs {
				v, ok, now, err := idxs[i].search(clocks[i], p.k)
				if err != nil {
					t.Fatalf("%s: search: %v", idxs[i].name, err)
				}
				clocks[i] = now
				if ok != p.ok || (ok && v != p.want) {
					t.Fatalf("step %d: %s Search(%d) = %d,%v want %d,%v",
						step, idxs[i].name, p.k, v, ok, p.want, p.ok)
				}
			}
		}
	}
	// Final full agreement check plus a range comparison.
	for i := range idxs {
		var err error
		clocks[i], err = idxs[i].fini(clocks[i])
		if err != nil {
			t.Fatalf("%s: fini: %v", idxs[i].name, err)
		}
	}
	for k, v := range model {
		for i := range idxs {
			got, ok, now, err := idxs[i].search(clocks[i], k)
			if err != nil || !ok || got != v {
				t.Fatalf("%s: final Search(%d) = %d,%v,%v want %d", idxs[i].name, k, got, ok, err, v)
			}
			clocks[i] = now
		}
	}
	wantRange := 0
	for k := range model {
		if k >= 300 && k < 1500 {
			wantRange++
		}
	}
	for i := range idxs {
		recs, now, err := idxs[i].rng(clocks[i], 300, 1500)
		if err != nil {
			t.Fatalf("%s: range: %v", idxs[i].name, err)
		}
		clocks[i] = now
		if len(recs) != wantRange {
			t.Fatalf("%s: range size %d, want %d", idxs[i].name, len(recs), wantRange)
		}
		for j := 1; j < len(recs); j++ {
			if recs[j-1].Key >= recs[j].Key {
				t.Fatalf("%s: range unsorted", idxs[i].name)
			}
		}
	}
}

// TestHeadlineTimingRelationships checks the paper's core performance
// claims hold on a common insert-then-search workload at this scale:
// PIO inserts beat the B+-tree's; BFTL inserts beat the B+-tree's while
// its searches are the slowest.
func TestHeadlineTimingRelationships(t *testing.T) {
	idxs := buildAll(t)
	times := map[string][2]vtime.Ticks{} // name -> [insertTime, searchTime]
	const n = 4000
	// Random key order, as in the paper's synthetic workloads (sequential
	// inserts are a best case for the write-back B+-tree's hot leaf).
	keys := rand.New(rand.NewSource(5)).Perm(n)
	for i := range idxs {
		var now vtime.Ticks
		var err error
		for j, k := range keys {
			now, err = idxs[i].ins(now, kv.Record{Key: uint64(k) * 7, Value: uint64(j)})
			if err != nil {
				t.Fatal(err)
			}
		}
		now, err = idxs[i].fini(now)
		if err != nil {
			t.Fatal(err)
		}
		insTime := now
		for j := 0; j < n; j += 4 {
			_, ok, now2, err := idxs[i].search(now, uint64(keys[j])*7)
			if err != nil || !ok {
				t.Fatalf("%s: search(%d): %v %v", idxs[i].name, keys[j]*7, ok, err)
			}
			now = now2
		}
		times[idxs[i].name] = [2]vtime.Ticks{insTime, now - insTime}
	}
	// Paper's Figure 12 relationships on flashSSDs: PIO inserts beat the
	// B+-tree's; BFTL (a raw-flash design) is the worst index overall and
	// its searches lose to the B+-tree's; PIO searches beat BFTL's.
	if times["pio"][0] >= times["btree"][0] {
		t.Errorf("PIO inserts (%v) not faster than B+-tree (%v)", times["pio"][0], times["btree"][0])
	}
	if times["bftl"][1] <= times["btree"][1] {
		t.Errorf("BFTL searches (%v) not slower than B+-tree (%v)", times["bftl"][1], times["btree"][1])
	}
	if times["pio"][1] >= times["bftl"][1] {
		t.Errorf("PIO searches (%v) not faster than BFTL (%v)", times["pio"][1], times["bftl"][1])
	}
	bftlTotal := times["bftl"][0] + times["bftl"][1]
	pioTotal := times["pio"][0] + times["pio"][1]
	if pioTotal >= bftlTotal {
		t.Errorf("PIO total (%v) not below BFTL total (%v)", pioTotal, bftlTotal)
	}
}
