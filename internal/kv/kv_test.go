package kv

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if OpInsert.String() != "i" || OpDelete.String() != "d" || OpUpdate.String() != "u" {
		t.Fatal("op strings wrong")
	}
	if Op(0).String() != "?" {
		t.Fatal("unknown op string wrong")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(k, v uint64, op uint8) bool {
		ops := []Op{OpInsert, OpDelete, OpUpdate}
		in := Entry{Rec: Record{Key: k, Value: v}, Op: ops[int(op)%3]}
		buf := make([]byte, EntrySize)
		PutEntry(buf, in)
		return GetEntry(buf) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(k, v uint64) bool {
		in := Record{Key: k, Value: v}
		buf := make([]byte, RecordSize)
		PutRecord(buf, in)
		return GetRecord(buf) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortRecordsStable(t *testing.T) {
	rs := []Record{{Key: 3, Value: 1}, {Key: 1, Value: 2}, {Key: 3, Value: 3}, {Key: 2, Value: 4}}
	SortRecords(rs)
	want := []Record{{Key: 1, Value: 2}, {Key: 2, Value: 4}, {Key: 3, Value: 1}, {Key: 3, Value: 3}}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("rs[%d] = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

func TestSortEntriesPreservesArrivalOrderPerKey(t *testing.T) {
	es := []Entry{
		{Rec: Record{Key: 5, Value: 1}, Op: OpInsert},
		{Rec: Record{Key: 5, Value: 0}, Op: OpDelete},
		{Rec: Record{Key: 2, Value: 9}, Op: OpInsert},
		{Rec: Record{Key: 5, Value: 2}, Op: OpInsert},
	}
	SortEntries(es)
	if es[0].Rec.Key != 2 {
		t.Fatal("not sorted")
	}
	// For key 5: insert, delete, insert in that arrival order.
	if es[1].Op != OpInsert || es[2].Op != OpDelete || es[3].Op != OpInsert || es[3].Rec.Value != 2 {
		t.Fatalf("arrival order broken: %+v", es)
	}
}

// TestSortsDoNotAllocate: the range-scan path sorts leaf tails and OPQ
// overlays on every call, so neither stable sort may allocate.
func TestSortsDoNotAllocate(t *testing.T) {
	rs := make([]Record, 256)
	es := make([]Entry, 256)
	var i int
	refill := func() {
		i++
		for j := range rs {
			k := Key((j*7919 + i) % 97)
			rs[j] = Record{Key: k, Value: Value(j)}
			es[j] = Entry{Rec: rs[j], Op: OpUpdate}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { refill(); SortRecords(rs) }); allocs != 0 {
		t.Fatalf("SortRecords allocates %.2f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { refill(); SortEntries(es) }); allocs != 0 {
		t.Fatalf("SortEntries allocates %.2f objects per call, want 0", allocs)
	}
}

func TestSearchRecords(t *testing.T) {
	rs := []Record{{Key: 10}, {Key: 20}, {Key: 30}}
	cases := []struct {
		k    Key
		want int
	}{{5, 0}, {10, 0}, {15, 1}, {30, 2}, {31, 3}}
	for _, c := range cases {
		if got := SearchRecords(rs, c.k); got != c.want {
			t.Errorf("SearchRecords(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestMergeEntries(t *testing.T) {
	a := []Entry{{Rec: Record{Key: 1, Value: 1}}, {Rec: Record{Key: 5, Value: 1}}}
	b := []Entry{{Rec: Record{Key: 1, Value: 2}}, {Rec: Record{Key: 3, Value: 2}}}
	m := MergeEntries(nil, a, b)
	if len(m) != 4 {
		t.Fatalf("len = %d", len(m))
	}
	// Keys sorted; a's (older) key-1 entry before b's.
	if m[0].Rec != (Record{Key: 1, Value: 1}) || m[1].Rec != (Record{Key: 1, Value: 2}) {
		t.Fatalf("tie order broken: %+v", m[:2])
	}
	if m[2].Rec.Key != 3 || m[3].Rec.Key != 5 {
		t.Fatalf("order broken: %+v", m)
	}
}

// Property: MergeEntries output is sorted and has the combined length.
func TestQuickMergeEntries(t *testing.T) {
	f := func(ka, kb []uint16) bool {
		a := make([]Entry, len(ka))
		for i, k := range ka {
			a[i] = Entry{Rec: Record{Key: uint64(k)}}
		}
		b := make([]Entry, len(kb))
		for i, k := range kb {
			b[i] = Entry{Rec: Record{Key: uint64(k)}}
		}
		SortEntries(a)
		SortEntries(b)
		m := MergeEntries(nil, a, b)
		if len(m) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i-1].Rec.Key > m[i].Rec.Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
