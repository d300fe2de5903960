// Package walorder is the golden-test fixture for the walorder
// analyzer. The shapes mirror internal/core's protocol sites: Append of
// a commit-point record kind, Force/ForceGroup durability calls, and
// publish/Store routing publications.
package walorder

type Kind uint8

const (
	KindFlushEnd Kind = iota + 1
	KindKeyMoved
	KindMigrationEnd
	KindFlushAbort
)

type Record struct {
	Kind Kind
	Key  uint64
}

type log struct{ lsn uint64 }

func (l *log) Append(r Record) uint64 { l.lsn++; return l.lsn }
func (l *log) Force(at int64) int64   { return at }

type table struct{ epoch uint64 }

type part struct{ cur *table }

func (p *part) publish(t table) { p.cur = &t }

// goodChunk follows the migration protocol: force the destination, then
// commit KeyMoved, force it, and only then publish the frontier.
func goodChunk(src, dst *log, p *part, at int64) {
	at = dst.Force(at)
	src.Append(Record{Kind: KindKeyMoved})
	at = src.Force(at)
	p.publish(table{epoch: 1})
}

func keyMovedBeforeForce(src *log, at int64) {
	src.Append(Record{Kind: KindKeyMoved}) // want `KeyMoved appended without a dominating Force`
	src.Force(at)
}

func publishWhilePending(l *log, p *part, at int64) {
	rec := Record{Kind: KindFlushEnd}
	l.Append(rec)
	p.publish(table{epoch: 2}) // want `routing state published while KindFlushEnd is appended but not forced`
	l.Force(at)
}

func unforcedAtReturn(l *log, at int64) {
	l.Force(at)
	l.Append(Record{Kind: KindMigrationEnd}) // want `KindMigrationEnd appended but not forced before the function returns`
}

// untrackedKindsAreFree: only commit-point kinds participate in the
// protocol; a flush abort needs no trailing force here.
func untrackedKindsAreFree(l *log) {
	l.Append(Record{Kind: KindFlushAbort})
}

func boundRecordResolved(l *log, p *part, at int64) {
	end := Record{Kind: KindMigrationEnd}
	l.Append(end)
	l.Force(at)
	p.publish(table{epoch: 3})
}

func retryIO(at int64, op func(int64) int64) int64 { return op(at) }

// retryWrappedForce: a force threaded through a retry helper as a
// method value still counts as a force for the protocol scan.
func retryWrappedForce(src, dst *log, p *part, at int64) {
	at = retryIO(at, dst.Force)
	src.Append(Record{Kind: KindKeyMoved})
	at = retryIO(at, src.Force)
	p.publish(table{epoch: 4})
}

func retryWrappedNonForce(l *log, at int64) {
	retryIO(at, nil)
	l.Append(Record{Kind: KindKeyMoved}) // want `KeyMoved appended without a dominating Force`
	l.Force(at)
}

// closeAll is a closing helper: it appends a commit record and forces.
func closeAll(l *log, at int64) int64 {
	l.Append(Record{Kind: KindMigrationEnd})
	return l.Force(at)
}

// closedThroughHelper: a closing helper's force also covers the records
// its caller appended before the call.
func closedThroughHelper(src, dst *log, at int64) {
	at = dst.Force(at)
	src.Append(Record{Kind: KindKeyMoved})
	closeAll(src, at)
}

func helperIsNoDestinationForce(l *log, at int64) {
	closeAll(l, at)
	l.Append(Record{Kind: KindKeyMoved}) // want `KeyMoved appended without a dominating Force`
	l.Force(at)
}

// closedOnOtherLog: the helper forces a log the caller did not append
// to, so the caller's record stays pending.
func closedOnOtherLog(src, dst *log, at int64) {
	at = dst.Force(at)
	src.Append(Record{Kind: KindKeyMoved}) // want `KindKeyMoved appended but not forced before the function returns`
	closeAll(dst, at)
}

type shard struct{ log *log }

// closeShards is a closing helper over a shard set.
func closeShards(shards []*shard, at int64) int64 {
	for _, s := range shards {
		s.log.Append(Record{Kind: KindMigrationEnd})
		at = s.log.Force(at)
	}
	return at
}

// closedThroughDerivedLog: the caller's log was picked out of the set it
// hands to the closing helper.
func closedThroughDerivedLog(shards []*shard, at int64) {
	at = shards[1].log.Force(at)
	first := shards[0]
	first.log.Append(Record{Kind: KindKeyMoved})
	closeShards(shards, at)
}

// forceOnly forces without appending a commit record: not a closing
// helper, so calling it leaves the caller's records pending.
func forceOnly(l *log, at int64) int64 { return l.Force(at) }

func notClosedByForceOnly(l *log, at int64) {
	l.Append(Record{Kind: KindFlushEnd}) // want `KindFlushEnd appended but not forced before the function returns`
	forceOnly(l, at)
}

// appendAfterForce forces before it appends: its own record is left
// pending, so it is not a closing helper either.
func appendAfterForce(l *log, at int64) int64 {
	at = l.Force(at)
	l.Append(Record{Kind: KindMigrationEnd}) // want `KindMigrationEnd appended but not forced before the function returns`
	return at
}

func notClosedByAppendAfterForce(l *log, at int64) {
	at = l.Force(at)
	l.Append(Record{Kind: KindKeyMoved}) // want `KindKeyMoved appended but not forced before the function returns`
	appendAfterForce(l, at)
}

func escapeHatch(l *log, at int64) {
	//lint:ignore walorder fixture for the suppression path
	l.Append(Record{Kind: KindKeyMoved})
	l.Force(at)
}
