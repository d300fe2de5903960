package main

import (
	"fmt"
	"math/bits"

	"repro/internal/kv"
)

// model is the in-driver oracle: which keys exist and with what value. A
// bit per possible key plus a map of updated values keeps a lookup at a
// few nanoseconds, so checking every result inline does not distort the
// host numbers.
type model struct {
	present []uint64
	updated map[uint64]uint64
	count   int64
}

func newModel(n int) *model {
	m := &model{present: make([]uint64, (n*slotStride+63)/64), updated: make(map[uint64]uint64), count: int64(n)}
	for i := 0; i < n; i++ {
		m.set(loadedKey(i))
	}
	return m
}

func (m *model) set(k uint64)   { m.present[k/64] |= 1 << (k % 64) }
func (m *model) clear(k uint64) { m.present[k/64] &^= 1 << (k % 64) }

func (m *model) has(k uint64) bool {
	return k/64 < uint64(len(m.present)) && m.present[k/64]&(1<<(k%64)) != 0
}

func (m *model) get(k uint64) (uint64, bool) {
	if !m.has(k) {
		return 0, false
	}
	if v, ok := m.updated[k]; ok {
		return v, true
	}
	return valueOf(k), true
}

// agrees reports whether a lookup result is what the model holds for k.
func (m *model) agrees(k, v uint64, found bool) bool {
	wv, wfound := m.get(k)
	return found == wfound && (!found || v == wv)
}

func (m *model) mismatch(k, v uint64, found bool) string {
	wv, wfound := m.get(k)
	return fmt.Sprintf("got (%d,%v), model has (%d,%v)", v, found, wv, wfound)
}

// apply records an acknowledged write.
func (m *model) apply(o op) {
	switch o.kind {
	case opInsert:
		m.set(o.key)
		m.count++
	case opUpdate:
		m.updated[o.key] = o.val
	case opDelete:
		m.clear(o.key)
		m.count--
	}
}

// revert undoes a write the crash lost (each key is written at most once
// per run, so the previous state is known).
func (m *model) revert(o op) {
	switch o.kind {
	case opInsert:
		m.clear(o.key)
		m.count--
	case opUpdate:
		delete(m.updated, o.key)
	case opDelete:
		m.set(o.key)
		m.count++
	}
}

// checkRange reports whether recs is exactly the model's content of
// [lo, hi), in key order.
func (m *model) checkRange(lo, hi uint64, recs []kv.Record) bool {
	i := 0
	for w := lo / 64; w <= (hi-1)/64 && w < uint64(len(m.present)); w++ {
		word := m.present[w]
		for word != 0 {
			k := w*64 + uint64(bits.TrailingZeros64(word))
			word &= word - 1
			if k < lo || k >= hi {
				continue
			}
			v, _ := m.get(k)
			if i >= len(recs) || recs[i].Key != k || recs[i].Value != v {
				return false
			}
			i++
		}
	}
	return i == len(recs)
}
