package core

import (
	"fmt"
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
// is a one-line reproducer. The ops are blind, as the paper's index ops
// state no precondition: deletes of absent keys, inserts of present keys
// and updates of absent keys all occur, and the model resolves them as
// the leaves do, as upserts.
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
			switch r := rng.Intn(10); {
			case r < 2:
				at, err = tr.Delete(at, k)
				delete(model, k)
			case r < 5:
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
		if err := quickMatches(tr, model, 400); err != nil {
			t.Logf("seed %d cfg %+v, queued: %v", seed, cfg, err)
			return false
		}
		if _, err := tr.FlushBatch(at, 0); err != nil {
			return false
		}
		if err := quickMatches(tr, model, 400); err != nil {
			t.Logf("seed %d cfg %+v, flushed: %v", seed, cfg, err)
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

// quickMatches checks tr's invariants, its Count and its content over
// keys [0, keys) against an upsert model.
func quickMatches(tr *Tree, model map[kv.Key]kv.Value, keys kv.Key) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	if n := tr.Count(); n != int64(len(model)) {
		return fmt.Errorf("Count() = %d, model holds %d", n, len(model))
	}
	got, _, err := tr.RangeSearch(0, 0, keys)
	if err != nil {
		return err
	}
	if len(got) != len(model) {
		return fmt.Errorf("content holds %d keys, model %d", len(got), len(model))
	}
	for _, r := range got {
		if v, ok := model[r.Key]; !ok || v != r.Value {
			return fmt.Errorf("content has (%d, %d), model (%d, %v)", r.Key, r.Value, v, ok)
		}
	}
	return nil
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
			switch r := rng.Intn(8); {
			case r < 2:
				at, err = tr.Delete(at, k)
				delete(model, k)
			case r < 3:
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
		if err := quickMatches(tr, model, 300); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
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
