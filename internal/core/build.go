package core

import (
	"fmt"

	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/wal"
)

// Spec is a forest's on-device layout plus its configuration: the input
// to Build.
type Spec struct {
	// Prefix is prepended to every file name, so several forests can share
	// one space (and one fault program can tell them apart).
	Prefix string
	// Shards is the shard count.
	Shards int
	// Capacity is the data bytes the whole forest is sized for; each
	// shard's data file gets Capacity/Shards plus 1 MiB of headroom.
	Capacity int64
	// WAL attaches one write-ahead log per shard.
	WAL bool
	// Forest is the forest configuration; Build fills its Logs.
	Forest ForestConfig
}

// logBytes is the size of every shard's log file.
const logBytes = 16 << 20

// Build lays a fresh forest out on space and opens it. For each shard in
// turn it creates the data file Prefix+"shard<i>" and, with a WAL, the
// log Prefix+"wal<i>"; all of them live on the one space, which is what
// lets a group flush gang their submissions. It then arms the space's
// stuck-I/O watchdog at the shard retry policy's deadline. It returns the
// forest, its page files and its logs (nil without a WAL).
func Build(space *ssdio.Space, s Spec) (*Forest, []*pagefile.PageFile, []*wal.Log, error) {
	if s.Shards < 1 {
		return nil, nil, nil, fmt.Errorf("core: build needs at least one shard, got %d", s.Shards)
	}
	pageSize := s.Forest.Shard.PageSize
	pfs := make([]*pagefile.PageFile, s.Shards)
	var logs []*wal.Log
	if s.WAL {
		logs = make([]*wal.Log, s.Shards)
	}
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("%sshard%d", s.Prefix, i), s.Capacity/int64(s.Shards)+1<<20)
		if err != nil {
			return nil, nil, nil, err
		}
		if pfs[i], err = pagefile.New(f, pageSize); err != nil {
			return nil, nil, nil, err
		}
		if !s.WAL {
			continue
		}
		wf, err := space.Create(fmt.Sprintf("%swal%d", s.Prefix, i), logBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		if logs[i], err = wal.NewLog(wf, pageSize); err != nil {
			return nil, nil, nil, err
		}
	}
	s.Forest.Logs = logs
	fr, err := NewForest(pfs, s.Forest)
	if err != nil {
		return nil, nil, nil, err
	}
	space.SetStuckTimeout(s.Forest.Shard.Retry.StuckDeadline())
	return fr, pfs, logs, nil
}
