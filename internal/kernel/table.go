package kernel

import (
	"sort"
	"sync"
)

// procShards stripes the process table. Power of two so the shard
// index is a mask of the pid; 16 stripes keep fork/exit of unrelated
// processes off each other's locks at the core counts the ROADMAP
// targets.
const procShards = 16

// procShard is one stripe: an independently locked slice of the pid
// space. Reads (the decision path resolving pid → *Process) take the
// read lock; only fork/spawn/exit write.
type procShard struct {
	mu    sync.RWMutex
	procs map[int]*Process
}

// procTable is the sharded process table. A pid's shard never changes,
// so a lookup is one RLock on 1/procShards of the table.
type procTable struct {
	shards [procShards]procShard
}

func newProcTable() *procTable {
	t := &procTable{}
	for i := range t.shards {
		t.shards[i].procs = make(map[int]*Process)
	}
	return t
}

func (t *procTable) shard(pid int) *procShard {
	return &t.shards[uint(pid)&(procShards-1)]
}

func (t *procTable) get(pid int) (*Process, bool) {
	sh := t.shard(pid)
	sh.mu.RLock()
	p, ok := sh.procs[pid]
	sh.mu.RUnlock()
	return p, ok
}

func (t *procTable) put(p *Process) {
	pid := p.PID()
	sh := t.shard(pid)
	sh.mu.Lock()
	sh.procs[pid] = p
	sh.mu.Unlock()
}

func (t *procTable) remove(pid int) {
	sh := t.shard(pid)
	sh.mu.Lock()
	delete(sh.procs, pid)
	sh.mu.Unlock()
}

// pids returns every live pid, sorted.
func (t *procTable) pids() []int {
	var out []int
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for pid := range sh.procs {
			out = append(out, pid)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(out)
	return out
}
