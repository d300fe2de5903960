package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// flushGolden holds, per case, the SHA-256 of the files a seeded op
// sequence leaves behind, data and log separately: each data file's full
// image, and each log file's, which is the wire bytes of every record
// forced to it. The data constants were taken while the flush path still
// decoded every leaf it touched, so a flush that works on the encoded
// pages must hand the device and the log exactly the bytes the decoder's
// re-encoding did. The log images also show head truncation: each
// committed flush that empties its shard's queue discards the log below
// its FlushStart, which then reads back as zeros. A solo case ends with a
// Checkpoint, whose cut would leave only its checkpoint and routing
// snapshot records, so its log is hashed just before it, after a Sync:
// the last drained flush's FlushStart, undo images and FlushEnd, and the
// redo records of the entries queued since.
var flushGolden = map[string]filesHash{
	"solo/L1/default": {
		data: "612f195e3a716069fc7a03144c6b0c7f3f6c69b0769c3551c4aca7ad180597ca",
		log:  "0d78d5c23da37beafaffbed334020700fc9ebef769c94845f7619986531c7a7a",
	},
	"solo/L1/sorted": {
		data: "c1fb5615165d268d84297c6d9b81f97c6aa1623b6d7a4992a8fd4f4443152b62",
		log:  "b2b05f04c1bc47716edf9dd10cfd72bd8511fbdc184bb7edce94b4f91bca7afe",
	},
	"solo/L1/nolsmap": {
		data: "612f195e3a716069fc7a03144c6b0c7f3f6c69b0769c3551c4aca7ad180597ca",
		log:  "0d78d5c23da37beafaffbed334020700fc9ebef769c94845f7619986531c7a7a",
	},
	"solo/L4/default": {
		data: "5a350a4f7ec29b8c42157ae28047a2be72c839cadc2d9e858acf6e87ab817aec",
		log:  "9421eb2eb714124f9b0fad4d74136eee6058104b477ecb58afa1fdc92f13a832",
	},
	"solo/L4/sorted": {
		data: "998d6d32cf6803573481da4bf3c46a0d27052ea906e152ba6e6805724636b1d6",
		log:  "5b09e92c0defcc0cae43be61fe7d025f413cff2956992e0f5400096959d9e501",
	},
	"solo/L4/nolsmap": {
		data: "5a350a4f7ec29b8c42157ae28047a2be72c839cadc2d9e858acf6e87ab817aec",
		log:  "9421eb2eb714124f9b0fad4d74136eee6058104b477ecb58afa1fdc92f13a832",
	},
	"group4/L1/default": {
		data: "4fa243a811c9af3642bcafdc0e712007232b9ff79964a2e80cd3c9418d89b00d",
		log:  "403b894e1eeb7f96132236b39cdb844d3a96dc2ab66377ba19defa3b43fe9b16",
	},
	"group4/L1/sorted": {
		data: "fd67ef08a8f06c4fab4a86a35386e649451ce55533a6774fdbdee652f755921d",
		log:  "85bf703dbd4c52556d33a994f3e948328751ac4b3f3708f2368327a00d93f312",
	},
	"group4/L1/nolsmap": {
		data: "4fa243a811c9af3642bcafdc0e712007232b9ff79964a2e80cd3c9418d89b00d",
		log:  "403b894e1eeb7f96132236b39cdb844d3a96dc2ab66377ba19defa3b43fe9b16",
	},
	"group4/L4/default": {
		data: "fb7c1aeba8c58f8e14dc76ee6a0234d6b5a3df91fe4dc57ca6169baf1f0bf361",
		log:  "de478c92b45fef5447e4267a27175328094b253311234b310542c493fa2a8de2",
	},
	"group4/L4/sorted": {
		data: "f2ca167098ce7a2aab8ff9b1539b49c02419b4c6648d242968f6e6fe0cb04eac",
		log:  "b3195859c693e031e9dacda77819ae97da30cf76431359ecc80799193729adfe",
	},
	"group4/L4/nolsmap": {
		data: "fb7c1aeba8c58f8e14dc76ee6a0234d6b5a3df91fe4dc57ca6169baf1f0bf361",
		log:  "de478c92b45fef5447e4267a27175328094b253311234b310542c493fa2a8de2",
	},
}

// filesHash is the SHA-256 of a case's data files and of its log files.
type filesHash struct{ data, log string }

// goldenCfg is a 512 B-page tree (29 entries a segment, 30 separators a
// node) that splits, shrinks and grows within a few thousand operations,
// with PioMax small enough that a flush spans several leaf groups.
func goldenCfg(segs int, mode string) Config {
	c := Config{PageSize: 512, LeafSegs: segs, OPQPages: 2, PioMax: 4, SPeriod: 16, BufferBytes: 16 * 512}
	switch mode {
	case "sorted":
		c.SortedLeaves = true
	case "nolsmap":
		c.DisableLSMap = true
	}
	return c
}

// goldenIndex is what goldenOps drives: a Tree or a Forest.
type goldenIndex interface {
	Insert(vtime.Ticks, kv.Record) (vtime.Ticks, error)
	Update(vtime.Ticks, kv.Record) (vtime.Ticks, error)
	Delete(vtime.Ticks, kv.Key) (vtime.Ticks, error)
}

// goldenOps applies n seeded operations — 60 % inserts of absent keys, 20 %
// updates and 20 % deletes of present ones — and returns the final time.
func goldenOps(t *testing.T, ix goldenIndex, seed int64, n int) vtime.Ticks {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []kv.Key
	present := map[kv.Key]bool{}
	var at vtime.Ticks
	var err error
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			k := kv.Key(rng.Intn(1 << 16))
			for present[k] {
				k = kv.Key(rng.Intn(1 << 16))
			}
			present[k] = true
			live = append(live, k)
			at, err = ix.Insert(at, kv.Record{Key: k, Value: rng.Uint64()})
		case r < 8:
			at, err = ix.Update(at, kv.Record{Key: live[rng.Intn(len(live))], Value: rng.Uint64()})
		default:
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(present, k)
			at, err = ix.Delete(at, k)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return at
}

// hashFiles returns the SHA-256 over each file's name and full image.
func hashFiles(files []*ssdio.File) string {
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s %d\n", f.Name(), f.Size())
		h.Write(f.Snapshot())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkArms fails unless the run reached every flush arm its mode has.
func checkArms(t *testing.T, mode string, st Stats) {
	t.Helper()
	if st.Shrinks == 0 || st.LeafSplits == 0 || (mode != "sorted") != (st.LeafAppends > 0) {
		t.Fatalf("flush arms not all reached: %d appends, %d shrinks, %d splits", st.LeafAppends, st.Shrinks, st.LeafSplits)
	}
}

// TestFlushBytesGolden runs goldenOps over L ∈ {1, 4} × {default,
// SortedLeaves, DisableLSMap}, on a one-shard logged forest (every flush a
// group of one) and on a 4-shard forest whose groups have several
// members, and compares the hash of every file with flushGolden.
func TestFlushBytesGolden(t *testing.T) {
	for _, segs := range []int{1, 4} {
		for _, mode := range []string{"default", "sorted", "nolsmap"} {
			cfg := goldenCfg(segs, mode)
			check := func(t *testing.T, name string, got filesHash) {
				if want := flushGolden[name]; got != want {
					t.Errorf("%s: files hash %+v, want %+v", name, got, want)
				}
			}
			name := fmt.Sprintf("solo/L%d/%s", segs, mode)
			t.Run(name, func(t *testing.T) {
				fr, files := newSoloForest(t, cfg)
				at, err := fr.Sync(goldenOps(t, fr, 1, 6000))
				if err != nil {
					t.Fatal(err)
				}
				log := hashFiles(files[1:])
				if _, err := fr.Checkpoint(at); err != nil {
					t.Fatal(err)
				}
				checkArms(t, mode, fr.ShardTree(0).Stats())
				if err := fr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				check(t, name, filesHash{data: hashFiles(files[:1]), log: log})
			})
			name = fmt.Sprintf("group4/L%d/%s", segs, mode)
			t.Run(name, func(t *testing.T) {
				fc := ForestConfig{RipeFraction: 0.05, Shard: cfg}
				fc.Shard.OPQPages *= 4
				fc.Shard.BufferBytes *= 4
				fr, files, _ := newWALForest(t, fc, 4)
				at := goldenOps(t, fr, 2, 16000)
				if _, err := fr.Sync(at); err != nil {
					t.Fatal(err)
				}
				var st Stats
				for _, s := range fr.shards {
					ts := s.tree.Stats()
					st.LeafAppends += ts.LeafAppends
					st.Shrinks += ts.Shrinks
					st.LeafSplits += ts.LeafSplits
				}
				checkArms(t, mode, st)
				if fs := fr.Stats(); fs.GroupedShards <= fs.GroupFlushes {
					t.Fatalf("no group flush had two members: %+v", fs)
				}
				check(t, name, filesHash{data: hashFiles(files[:4]), log: hashFiles(files[4:])})
			})
		}
	}
}

// decodeTailRef is the reference the in-place append replaced: it decodes
// buf — segments first, first+1, … of a leaf — up to the first segment
// that is not full, into a leaf whose entries before segment first are
// placeholders (those segments are full, and an append never re-encodes
// them); sorted and next come from segment 0 when it was read.
func decodeTailRef(id pagefile.PageID, buf []byte, pageSize, segs, first int) (*leafNode, error) {
	c := segCap(pageSize)
	l := &leafNode{id: id, segs: segs, entries: make([]kv.Entry, first*c)}
	for s := 0; s < len(buf)/pageSize; s++ {
		page := buf[s*pageSize : (s+1)*pageSize]
		if page[0] != kindLeafSeg {
			return nil, fmt.Errorf("core: leaf %d seg %d: bad kind %d", id, first+s, page[0])
		}
		cnt := int(binary.LittleEndian.Uint16(page[2:]))
		if cnt > c {
			return nil, fmt.Errorf("core: leaf %d seg %d: count %d", id, first+s, cnt)
		}
		if first+s == 0 {
			l.sorted = int(binary.LittleEndian.Uint32(page[4:]))
			l.next = pagefile.PageID(binary.LittleEndian.Uint64(page[8:]))
		}
		for i := 0; i < cnt; i++ {
			l.entries = append(l.entries, kv.GetEntry(page[segHeaderSize+i*kv.EntrySize:]))
		}
		if cnt < c {
			break
		}
	}
	return l, nil
}

// FuzzLeafAppend holds the flush's in-place append (segCount, then
// appendRun) to the decode path it replaced: decode the segments read,
// append the entries, re-encode the touched segments with encodeSeg. The
// fuzzer picks the leaf's shape, whether the read is an LSMap hit (the
// last segment holding an entry) or a miss (the whole leaf), up to four
// header-byte corruptions of the segments read, and how many entries to
// append. The two must reject a page with the same error, or produce the
// same bytes; the room past the segments read starts as junk, so a newly
// opened segment must be encoded from nothing.
func FuzzLeafAppend(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), uint16(0), true, false, []byte{})
	f.Add(uint64(2), uint16(14), uint16(0), uint16(3), true, false, []byte{})
	f.Add(uint64(3), uint16(20), uint16(9), uint16(40), true, true, []byte{})
	f.Add(uint64(4), uint16(5), uint16(5), uint16(2), false, false, []byte{0, 1, 9})
	f.Add(uint64(5), uint16(13), uint16(1), uint16(0), true, false, []byte{0, 4, 200})
	f.Fuzz(func(t *testing.T, seed uint64, baseN, tailN, addN uint16, wide, miss bool, mut []byte) {
		const id = pagefile.PageID(7)
		segs := 1
		if wide {
			segs = 4
		}
		c, capacity := segCap(viewPS), leafCap(viewPS, segs)
		base := int(baseN) % (capacity + 1)
		rng := rand.New(rand.NewSource(int64(seed)))
		l := genLeaf(rng, segs, base, int(tailN)%(capacity-base+1))
		leaf, last := encodeLeafT(t, l, viewPS)
		first, lastLS := last, last
		if miss {
			first, lastLS = 0, segs-1
		}
		run := make([]byte, (segs-first)*viewPS)
		for i := range run {
			run[i] = 0xa5
		}
		read := run[:(lastLS-first+1)*viewPS]
		copy(read, leaf[first*viewPS:])
		for i := 0; i+3 <= len(mut) && i < 12; i += 3 {
			read[int(mut[i])%(lastLS-first+1)*viewPS+int(mut[i+1])%segHeaderSize] = mut[i+2]
		}

		ref, refErr := decodeTailRef(id, read, viewPS, segs, first)
		n, err := segCount(id, read, viewPS, first)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("segCount error %v, decoder error %v", err, refErr)
		}
		if err != nil {
			return
		}
		total := first*c + n
		if total != len(ref.entries) {
			t.Fatalf("segCount total %d, decoder %d", total, len(ref.entries))
		}
		if total == capacity {
			return
		}
		entries := make([]kv.Entry, 1+int(addN)%(capacity-total))
		for i := range entries {
			entries[i] = kv.Entry{Rec: kv.Record{Key: rng.Uint64(), Value: rng.Uint64()}, Op: kv.Op(rng.Intn(256))}
		}

		lo, hi := appendRun(run, viewPS, first, total, entries)
		ref.entries = append(ref.entries, entries...)
		if wlo, whi := total/c, (len(ref.entries)-1)/c; lo != wlo || hi != whi {
			t.Fatalf("touched segments [%d, %d], want [%d, %d]", lo, hi, wlo, whi)
		}
		want := make([]byte, viewPS)
		for s := lo; s <= hi; s++ {
			if err := ref.encodeSeg(want, s); err != nil {
				t.Fatal(err)
			}
			if got := run[(s-first)*viewPS : (s-first+1)*viewPS]; !bytes.Equal(got, want) {
				t.Fatalf("segment %d: in place %x, re-encoded %x", s, got, want)
			}
		}
	})
}

// newSoloForest builds a one-shard forest over a 1 MiB data file "idx"
// and a 4 MiB log "wal", the layout of the solo cases' golden files.
func newSoloForest(t *testing.T, cfg Config) (*Forest, []*ssdio.File) {
	t.Helper()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
	f, err := space.Create("idx", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pagefile.New(f, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := space.Create("wal", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.NewLog(wf, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewForest([]*pagefile.PageFile{pf}, ForestConfig{Shard: cfg, Logs: []*wal.Log{l}})
	if err != nil {
		t.Fatal(err)
	}
	return fr, []*ssdio.File{f, wf}
}

// newWALForest builds an n-shard forest with one log per shard and
// returns it with its files, data files first, and their space.
func newWALForest(t *testing.T, cfg ForestConfig, n int) (*Forest, []*ssdio.File, *ssdio.Space) {
	t.Helper()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
	pfs := make([]*pagefile.PageFile, n)
	cfg.Logs = make([]*wal.Log, n)
	files := make([]*ssdio.File, 2*n)
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if pfs[i], err = pagefile.New(f, cfg.Shard.PageSize); err != nil {
			t.Fatal(err)
		}
		wf, err := space.Create(fmt.Sprintf("wal%d", i), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Logs[i], err = wal.NewLog(wf, cfg.Shard.PageSize); err != nil {
			t.Fatal(err)
		}
		files[i], files[n+i] = f, wf
	}
	fr, err := NewForest(pfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fr, files, space
}

// TestFlushArenaLifetime pins the flush arena's rule: a buffer is valid
// until the tree's next flushBatch. Each member of a 4-shard group flush
// touches several times PioMax leaves, so its writes wait in groupIO.reqs
// across many flushLeaves calls — an arena reset per call would overwrite
// the earlier calls' queued pages — and the data gang fails transiently
// once, so the same buffers are submitted twice. After a crash and
// Recover, every committed key reads back with its committed value.
func TestFlushArenaLifetime(t *testing.T) {
	const n, updates = 8000, 800
	cfg := ForestConfig{
		RipeFraction: 0.01,
		Shard: Config{
			PageSize:    512,
			LeafSegs:    4,
			OPQPages:    4 * 14,
			PioMax:      4,
			BufferBytes: 4 * 64 * 512,
			Retry:       RetryPolicy{MaxRetries: 4, BaseBackoff: 20 * vtime.Millisecond, MaxBackoff: 80 * vtime.Millisecond},
		},
	}
	fr, _, space := newWALForest(t, cfg, 4)
	recs := allocRecs(n)
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	at, err := fr.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[kv.Key]kv.Value{}
	for _, r := range recs {
		want[r.Key] = r.Value
	}
	// Updates spread over every leaf of every shard.
	for j := 0; j < updates; j++ {
		k := kv.Key(j*n/updates*8 + 3)
		want[k] = kv.Value(j) + 1<<32
		if at, err = fr.Update(at, kv.Record{Key: k, Value: want[k]}); err != nil {
			t.Fatal(err)
		}
	}
	before := fr.Stats()
	// The window covers the group's data gang but not its retry, which
	// waits out a 20 ms backoff.
	fmInstall(t, space, fmt.Sprintf("transient call=gang file=shard* until=%dns", at+15*vtime.Millisecond))
	if at, err = fr.Flush(at); err != nil {
		t.Fatal(err)
	}
	space.SetInjector(nil)
	st := fr.Stats()
	if st.GroupedShards-before.GroupedShards != 4 || st.IORetries == before.IORetries || st.IORetriesExhausted != 0 {
		t.Fatalf("want one 4-shard group flush whose data gang was retried once: before %+v, after %+v", before, st)
	}
	for i, s := range fr.shards {
		if ts := s.tree.Stats(); ts.LeafAppends <= 2*int64(cfg.Shard.PioMax) || s.tree.OPQLen() != 0 {
			t.Fatalf("shard %d: %d leaf appends, %d entries queued: want a flush of several PioMax groups", i, ts.LeafAppends, s.tree.OPQLen())
		}
	}

	fr.Crash()
	if _, at, err = fr.Recover(at); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, ok, done, err := fr.Search(at, k)
		if err != nil || !ok || got != v {
			t.Fatalf("Search(%d) = %d, %v, %v; want %d", k, got, ok, err, v)
		}
		at = done
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
