// Lock hierarchy of the forest's concurrency planes.
//
// The declarations below are machine-checked by piolint's lockorder
// analyzer: it derives the whole-program lock-acquisition graph (through
// call chains, including locks held across Migration steps and the flush
// coordinator) and fails CI on any acquisition that inverts or escapes
// this partial order.
//
// The order reflects the write path top-down: the migration gate is
// taken before any shard, a shard's mutex is held while its WAL appends
// and forces run, the WAL holds its mutex across the simulated device
// write, a psync or gang too large for a stack request array holds its
// Space's request-array mutex across its whole submission, and the ssdio
// file mutex nests directly above the flashsim device mutex at the very
// bottom.
//
// Two lock classes are legitimately multi-held; their instances are
// always acquired in a canonical order:
//
// The fault injector rules on every submission unit before the file
// mutex is taken, so faultio.Plane.mu sits between the WAL and the I/O
// plane and is never held while any other lock is acquired.
//
//lint:lockorder core.Forest.migMu < core.forestShard.mu < wal.Log.mu < ssdio.Space.reqMu < ssdio.File.mu < flashsim.Device.mu
//lint:lockorder core.Forest.autoMu < core.forestShard.mu
//lint:lockorder wal.Log.mu < faultio.Plane.mu
//lint:lockorder-multi core.forestShard.mu shard pairs and flush groups lock shards in ascending shard-index order
package core
