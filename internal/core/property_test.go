package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// TestQuickRandomOpSequences drives the PIO B-tree with randomized
// operation sequences derived from quick-generated seeds and verifies
// structural invariants and model agreement after each run. This is the
// repository's broadest property test: any seed that breaks an invariant
// is a one-line reproducer.
func TestQuickRandomOpSequences(t *testing.T) {
	f := func(seed int64, opqPages, leafSegs, bcnt uint8) bool {
		cfg := smallCfg()
		cfg.OPQPages = int(opqPages)%3 + 1
		cfg.LeafSegs = []int{1, 2, 4, 8}[int(leafSegs)%4]
		cfg.BCnt = []int{0, 16, 128}[int(bcnt)%3]
		tr := newQuickTree(cfg)
		if tr == nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := make(map[kv.Key]kv.Value)
		var at vtime.Ticks
		var err error
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(400))
			_, exists := model[k]
			switch {
			case rng.Intn(5) == 0 && exists:
				at, err = tr.Delete(at, k)
				delete(model, k)
			case exists:
				at, err = tr.Update(at, kv.Record{Key: k, Value: uint64(i)})
				model[k] = uint64(i)
			default:
				at, err = tr.Insert(at, kv.Record{Key: k, Value: uint64(i)})
				model[k] = uint64(i)
			}
			if err != nil {
				return false
			}
		}
		if _, err := tr.FlushBatch(at, 0); err != nil {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("seed %d cfg %+v: %v", seed, cfg, err)
			return false
		}
		if tr.Count() != int64(len(model)) {
			return false
		}
		// Spot-verify a sample of model keys plus an absent key.
		for j := 0; j < 20; j++ {
			k := uint64(rng.Intn(400))
			v, found, at2, err := tr.Search(0, k)
			if err != nil {
				return false
			}
			at = at2
			want, wantOK := model[k]
			if found != wantOK || (found && v != want) {
				t.Logf("seed %d: Search(%d) = %d,%v want %d,%v", seed, k, v, found, want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// newQuickTree builds a tree swallowing setup errors (reported as a
// property failure by the caller).
func newQuickTree(cfg Config) *Tree {
	dev := flashsim.MustDevice(flashsim.P300())
	f, err := ssdio.NewSpace(dev).Create("idx", 1<<20)
	if err != nil {
		return nil
	}
	pf, err := pagefile.New(f, cfg.PageSize)
	if err != nil {
		return nil
	}
	tr, err := New(pf, cfg)
	if err != nil {
		return nil
	}
	return tr
}

// TestQuickRangeMatchesModel: prange over random state always equals the
// model's sorted filter.
func TestQuickRangeMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallCfg()
		cfg.BCnt = 32
		tr := newQuickTree(cfg)
		if tr == nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := make(map[kv.Key]kv.Value)
		var at vtime.Ticks
		var err error
		for i := 0; i < 800; i++ {
			k := uint64(rng.Intn(300))
			if rng.Intn(4) == 0 {
				if _, ok := model[k]; ok {
					at, err = tr.Delete(at, k)
					delete(model, k)
				}
			} else {
				at, err = tr.Insert(at, kv.Record{Key: k, Value: uint64(i)})
				model[k] = uint64(i)
			}
			if err != nil {
				return false
			}
		}
		lo := uint64(rng.Intn(150))
		hi := lo + uint64(rng.Intn(150)) + 1
		got, _, err := tr.RangeSearch(at, lo, hi)
		if err != nil {
			return false
		}
		want := 0
		for k := range model {
			if k >= lo && k < hi {
				want++
			}
		}
		if len(got) != want {
			t.Logf("seed %d range [%d,%d): got %d want %d", seed, lo, hi, len(got), want)
			return false
		}
		for i := range got {
			if got[i].Value != model[got[i].Key] {
				return false
			}
			if i > 0 && got[i-1].Key >= got[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
