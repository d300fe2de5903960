// Package kv defines the index record vocabulary shared by every index in
// this repository: 64-bit keys, 64-bit record pointers (data page ids, per
// the paper's "pointer to the data record page"), and the update-operation
// flags of the paper's OPQ entries.
package kv

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
)

// Key is an index key value.
type Key = uint64

// Value is an index record's payload: a pointer to the data record page.
type Value = uint64

// Record is an index record: key value plus data page pointer.
type Record struct {
	Key   Key
	Value Value
}

// Op is the type flag of an update operation (Section 3.1.3: "i: insert,
// d: delete, u: update").
type Op uint8

const (
	// OpInsert inserts an index record.
	OpInsert Op = 'i'
	// OpDelete deletes the record with the given key.
	OpDelete Op = 'd'
	// OpUpdate replaces the record's pointer for the given key.
	OpUpdate Op = 'u'
)

// String names the op like the paper's flags.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "i"
	case OpDelete:
		return "d"
	case OpUpdate:
		return "u"
	default:
		return "?"
	}
}

// Entry is an OPQ-style entry: an index record plus an operation flag.
// It is the unit stored in the Operation Queue and appended to PIO B-tree
// leaf segments.
type Entry struct {
	Rec Record
	Op  Op
}

// EntrySize is the encoded size of an Entry: key + value + op flag,
// padded to 17 bytes.
const EntrySize = 8 + 8 + 1

// PutEntry encodes e at b[:EntrySize].
func PutEntry(b []byte, e Entry) {
	binary.LittleEndian.PutUint64(b, e.Rec.Key)
	binary.LittleEndian.PutUint64(b[8:], e.Rec.Value)
	b[16] = byte(e.Op)
}

// GetEntry decodes an Entry from b[:EntrySize].
func GetEntry(b []byte) Entry {
	return Entry{
		Rec: Record{
			Key:   binary.LittleEndian.Uint64(b),
			Value: binary.LittleEndian.Uint64(b[8:]),
		},
		Op: Op(b[16]),
	}
}

// RecordSize is the encoded size of a plain Record.
const RecordSize = 8 + 8

// PutRecord encodes r at b[:RecordSize].
func PutRecord(b []byte, r Record) {
	binary.LittleEndian.PutUint64(b, r.Key)
	binary.LittleEndian.PutUint64(b[8:], r.Value)
}

// GetRecord decodes a Record from b[:RecordSize].
func GetRecord(b []byte) Record {
	return Record{
		Key:   binary.LittleEndian.Uint64(b),
		Value: binary.LittleEndian.Uint64(b[8:]),
	}
}

// SortRecords orders records ascending by key (stable on equal keys). It
// allocates nothing.
func SortRecords(rs []Record) {
	slices.SortStableFunc(rs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
}

// SortEntries orders entries ascending by key, preserving the relative
// order of operations on the same key (the conflicting-order requirement
// of Section 3.4 within one batch). It allocates nothing.
func SortEntries(es []Entry) {
	slices.SortStableFunc(es, func(a, b Entry) int { return cmp.Compare(a.Rec.Key, b.Rec.Key) })
}

// SearchRecords returns the position of the first record with key >= k.
func SearchRecords(rs []Record, k Key) int {
	return sort.Search(len(rs), func(i int) bool { return rs[i].Key >= k })
}

// MergeEntries appends to dst the merge of two key-sorted entry slices,
// preserving order between equal keys (a's entries are older and come
// first) — the OPQ sorted-region merge of Section 3.1.3. dst must not
// overlap a or b.
func MergeEntries(dst, a, b []Entry) []Entry {
	dst = slices.Grow(dst, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Rec.Key <= b[j].Rec.Key {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
