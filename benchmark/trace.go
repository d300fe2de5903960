package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// The outside-in trace. The driver opens a span around every call it makes
// into core.Forest; a recording ssdio.Injector — it always returns the zero
// FaultDecision, so the I/O plane behaves and costs (in simulated time)
// exactly as without it — emits one child event per submission unit. Spans
// and events stay in memory and are written out, if at all, after the run.

// span is one driver call into the forest.
type span struct {
	kind         opKind
	shard        int16 // owning shard of the op's key; -1 for forest-wide calls
	host0, host1 int64 // ns since the recorder started
	at, done     vtime.Ticks
}

// Call kinds of an ioEvent, in ssdio's vocabulary.
const (
	callSync = iota
	callPsync
	callGang
)

var callNames = [...]string{ssdio.CallSync, ssdio.CallPsync, ssdio.CallGang}

// ioEvent is one submission unit seen at the ssdio boundary.
type ioEvent struct {
	parent int32 // index of the span in flight
	call   uint8
	wal    bool // file class: WAL file or data file
	reqs   int32
	bytes  int64
	at     vtime.Ticks
	host   int64
}

type recorder struct {
	t0     time.Time
	spans  []span
	events []ioEvent
}

func newRecorder(spanHint int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, spanHint), events: make([]ioEvent, 0, spanHint*2)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(kind opKind, shard int, at vtime.Ticks) {
	r.spans = append(r.spans, span{kind: kind, shard: int16(shard), host0: r.now(), at: at})
}

func (r *recorder) end(done vtime.Ticks) {
	s := &r.spans[len(r.spans)-1]
	s.host1, s.done = r.now(), done
}

// Decide implements ssdio.Injector: record, never interfere.
func (r *recorder) Decide(file, call string, at vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	ev := ioEvent{parent: int32(len(r.spans) - 1), wal: strings.HasPrefix(file, "wal-"), reqs: int32(len(reqs)), at: at, host: r.now()}
	switch call {
	case ssdio.CallPsync:
		ev.call = callPsync
	case ssdio.CallGang:
		ev.call = callGang
	}
	for _, q := range reqs {
		ev.bytes += int64(len(q.Buf))
	}
	r.events = append(r.events, ev)
	return ssdio.FaultDecision{}
}

// kindTrace is what the spans and events say about one op kind.
type kindTrace struct {
	calls     int
	hostNs    int64
	simTicks  vtime.Ticks
	prewait   vtime.Ticks // sim time from the op's start to its first submission
	readBytes int64       // data-file bytes submitted under the op (reads, for searches)
	lat       []vtime.Ticks
}

// traceSummary folds the spans and events.
type traceSummary struct {
	kinds       [numOpKinds]kindTrace
	gangCalls   int
	gangMembers int
}

func (r *recorder) summarize() *traceSummary {
	ts := &traceSummary{}
	for _, s := range r.spans {
		k := &ts.kinds[s.kind]
		k.calls++
		k.hostNs += s.host1 - s.host0
		k.simTicks += s.done - s.at
		k.lat = append(k.lat, s.done-s.at)
	}
	seen := make([]bool, len(r.spans))
	for i, ev := range r.events {
		if ev.call == callGang {
			// Members of one gang arrive back to back with one timestamp
			// and one file class; a change in any of them starts a new gang.
			ts.gangMembers++
			if i == 0 || r.events[i-1].call != callGang || r.events[i-1].at != ev.at ||
				r.events[i-1].wal != ev.wal || r.events[i-1].parent != ev.parent {
				ts.gangCalls++
			}
		}
		if ev.parent < 0 {
			continue
		}
		s := r.spans[ev.parent]
		k := &ts.kinds[s.kind]
		if !ev.wal {
			k.readBytes += ev.bytes
		}
		if !seen[ev.parent] {
			seen[ev.parent] = true
			k.prewait += ev.at - s.at
		}
	}
	return ts
}

// writeJSONL dumps spans and events, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range r.spans {
		fmt.Fprintf(w, `{"t":"span","id":%d,"op":%q,"shard":%d,"host_start_ns":%d,"host_end_ns":%d,"sim_at":%d,"sim_done":%d}`+"\n",
			i, opNames[s.kind], s.shard, s.host0, s.host1, int64(s.at), int64(s.done))
	}
	for _, ev := range r.events {
		class := "data"
		if ev.wal {
			class = "wal"
		}
		fmt.Fprintf(w, `{"t":"io","parent":%d,"call":%q,"file":%q,"reqs":%d,"bytes":%d,"sim_at":%d,"host_ns":%d}`+"\n",
			ev.parent, callNames[ev.call], class, ev.reqs, ev.bytes, int64(ev.at), ev.host)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
