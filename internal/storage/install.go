package storage

import (
	"fmt"
	"runtime"
	"sync"
)

// An Installer hands rows to a goroutine installBatch at a time, and
// the producer may run installQueue batches ahead, so neither side
// idles through rows dear to the other (DESIGN.md §2.5).
const installBatch, installQueue = 256, 64

type installRow struct {
	tab      *Table
	key      Key
	tuple    Tuple
	ts, addr uint64 // addr: the lock-order address its batch reserved
}

// Installer bulk-loads visible rows like Table.Put, on max(1,
// GOMAXPROCS−1) goroutines while one producer Puts them. Each batch
// reserves its run of lock-order addresses as it is handed off, so the
// image (rows, timestamps, relative address order) is a serial Put
// loop's. Call Wait once every row is out.
type Installer struct {
	batch []installRow
	jobs  chan []installRow
	wg    sync.WaitGroup
	once  sync.Once
	err   error
}

// NewInstaller starts the installer goroutines.
func NewInstaller() *Installer {
	n := max(1, runtime.GOMAXPROCS(0)-1)
	in := &Installer{batch: make([]installRow, 0, installBatch), jobs: make(chan []installRow, installQueue)}
	in.wg.Add(n)
	for range n {
		go in.run()
	}
	return in
}

// Put queues one row. A width not its table's panics once installed.
func (in *Installer) Put(t *Table, key Key, tuple Tuple, ts uint64) {
	if in.batch = append(in.batch, installRow{tab: t, key: key, tuple: tuple, ts: ts}); len(in.batch) == installBatch {
		in.flush()
	}
}

func (in *Installer) flush() {
	base := addrCounter.Add(uint64(len(in.batch))) - uint64(len(in.batch))
	for i := range in.batch {
		in.batch[i].addr = base + uint64(i) + 1
	}
	in.jobs <- in.batch
	in.batch = make([]installRow, 0, installBatch)
}

func (in *Installer) run() {
	defer in.wg.Done()
	for rows := range in.jobs {
		for _, r := range rows {
			if !r.tab.store(newRecord(r.addr, r.tab.id, r.key, r.tuple, r.ts, true)) {
				dup := fmt.Errorf("storage: bulk install: table %s: key %d installed twice", r.tab.schema.Name, r.key)
				in.once.Do(func() { in.err = dup })
			}
		}
	}
}

// Wait returns once every row is in, or names a (table, key) stored twice.
func (in *Installer) Wait() error {
	in.flush()
	close(in.jobs)
	in.wg.Wait()
	return in.err
}
