package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"thedb/internal/wal"
)

// FileSet manages a directory of per-worker WAL generation files
// (worker-<i>.gen-<G>.wal). The active generation is what the live
// wal.Logger appends to; closed generations are retained until a
// checkpoint watermark proves them redundant, then deleted. Rotation
// swaps every worker onto a fresh generation at a group boundary so
// each file starts and ends on whole frames.
type FileSet struct {
	dir     string
	workers int

	mu     sync.Mutex
	gen    uint64      // active generation number
	active []*os.File  // per-worker active file
	sinks  []io.Writer // what the logger actually writes to (active or wrapped)
	wrap   func(worker int, f *os.File) io.Writer
	closed []closedGen
	// adopted holds pre-existing generations found at open: their max
	// epoch is unknown until recovery finishes and SetRecoveredMax is
	// called with a conservative upper bound.
	adopted []int // indices into closed

	boot map[int][]string // worker -> pre-existing gen paths, sorted
}

type closedGen struct {
	path     string
	worker   int
	maxEpoch uint32
	known    bool // maxEpoch is trustworthy
}

var genFileRE = regexp.MustCompile(`^worker-(\d+)\.gen-(\d+)\.wal$`)

// genPath names generation g of worker i under dir.
func genPath(dir string, i int, g uint64) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d.gen-%06d.wal", i, g))
}

// OpenFileSet scans dir for existing generation files, adopts them as
// closed generations (replayable via BootStreams, truncatable once
// SetRecoveredMax supplies an epoch bound), and creates a fresh active
// generation for each of workers streams. wrapSink, when non-nil,
// wraps each newly created file's writer — the torture harness uses it
// to interpose crashing sinks; pass nil in production.
func OpenFileSet(dir string, workers int, wrapSink func(worker int, f *os.File) io.Writer) (*FileSet, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("checkpoint: fileset needs at least one worker")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs := &FileSet{dir: dir, workers: workers, wrap: wrapSink, boot: make(map[int][]string)}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var maxGen uint64
	type existing struct {
		worker int
		gen    uint64
		path   string
	}
	var found []existing
	for _, e := range entries {
		m := genFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		w, _ := strconv.Atoi(m[1])
		g, _ := strconv.ParseUint(m[2], 10, 64)
		found = append(found, existing{worker: w, gen: g, path: filepath.Join(dir, e.Name())})
		if g > maxGen {
			maxGen = g
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].worker != found[j].worker {
			return found[i].worker < found[j].worker
		}
		return found[i].gen < found[j].gen
	})
	for _, f := range found {
		fs.boot[f.worker] = append(fs.boot[f.worker], f.path)
		fs.closed = append(fs.closed, closedGen{path: f.path, worker: f.worker})
		fs.adopted = append(fs.adopted, len(fs.closed)-1)
	}

	fs.gen = maxGen + 1
	fs.active = make([]*os.File, workers)
	fs.sinks = make([]io.Writer, workers)
	for i := 0; i < workers; i++ {
		f, err := os.OpenFile(genPath(dir, i, fs.gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			for j := 0; j < i; j++ {
				fs.active[j].Close() //thedb:nolint:syncerr error-path cleanup of empty just-created files; the open error dominates
			}
			return nil, err
		}
		fs.active[i] = f
		if wrapSink != nil {
			fs.sinks[i] = wrapSink(i, f)
		} else {
			fs.sinks[i] = f
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return fs, nil
}

// Dir returns the directory the set lives in.
func (fs *FileSet) Dir() string { return fs.dir }

// Workers returns the number of per-worker streams the set keeps.
func (fs *FileSet) Workers() int { return fs.workers }

// Sink returns worker i's active log sink, suitable for Config.LogSink.
func (fs *FileSet) Sink(i int) io.Writer {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sinks[i]
}

// BootStreams opens the pre-existing (adopted) generations as one
// logical recovery stream per worker: each worker's generation files
// concatenate in generation order, so seals and groups land in a
// single stream and the durable cut is computed over whole workers,
// not file fragments. Workers with no files contribute no stream.
// Close the returned closer when recovery is done.
func (fs *FileSet) BootStreams() (streams []io.Reader, closeAll func() error, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var files []*os.File
	closeAll = func() error {
		var first error
		for _, f := range files {
			if e := f.Close(); e != nil && first == nil {
				first = e
			}
		}
		return first
	}
	workers := make([]int, 0, len(fs.boot))
	for w := range fs.boot {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		var parts []io.Reader
		for _, p := range fs.boot[w] {
			f, err := os.Open(p)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			files = append(files, f)
			parts = append(parts, f)
		}
		if len(parts) > 0 {
			streams = append(streams, io.MultiReader(parts...))
		}
	}
	return streams, closeAll, nil
}

// SetRecoveredMax bounds the adopted generations' unknown max epochs
// by maxEpoch (the highest epoch recovery observed anywhere). An upper
// bound only delays deletion — a generation is removed when its bound
// drops below a watermark — so conservative is safe, premature is not.
func (fs *FileSet) SetRecoveredMax(maxEpoch uint32) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, idx := range fs.adopted {
		fs.closed[idx].maxEpoch = maxEpoch
		fs.closed[idx].known = true
	}
	fs.adopted = nil
}

// Rotate moves every worker of lg onto a fresh generation. Each old
// active file is flushed at a group boundary (wal.Logger.Rotate),
// fsynced, closed and recorded as a closed generation carrying the
// stream's max epoch at rotation. Returns the new generation number.
func (fs *FileSet) Rotate(lg *wal.Logger) (uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next := fs.gen + 1
	newFiles := make([]*os.File, fs.workers)
	for i := 0; i < fs.workers; i++ {
		f, err := os.OpenFile(genPath(fs.dir, i, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			for j := 0; j < i; j++ {
				newFiles[j].Close() //thedb:nolint:syncerr error-path cleanup of empty just-created files; the open error dominates
				os.Remove(genPath(fs.dir, j, next))
			}
			return 0, err
		}
		newFiles[i] = f
	}
	if err := syncDir(fs.dir); err != nil {
		return 0, err
	}
	for i := 0; i < fs.workers; i++ {
		sink := io.Writer(newFiles[i])
		if fs.wrap != nil {
			sink = fs.wrap(i, newFiles[i])
		}
		prevFile := fs.active[i]
		maxEpoch, err := lg.Rotate(i, sink, func(prev io.Writer) error {
			if err := prevFile.Sync(); err != nil {
				return err
			}
			return prevFile.Close()
		})
		if err != nil {
			return 0, err
		}
		fs.closed = append(fs.closed, closedGen{
			path:     genPath(fs.dir, i, fs.gen),
			worker:   i,
			maxEpoch: maxEpoch,
			known:    true,
		})
		fs.active[i] = newFiles[i]
		fs.sinks[i] = sink
	}
	fs.gen = next
	return next, nil
}

// Truncate deletes every closed generation whose max epoch is known
// and at or below watermark: all its commit groups are fully contained
// in a published checkpoint. midPoint, when non-nil, runs after the
// first deletion (crash-point injection). Returns how many files were
// removed.
func (fs *FileSet) Truncate(watermark uint32, midPoint func() error) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	removed := 0
	old := fs.closed
	kept := make([]closedGen, 0, len(old))
	var retErr error
	for _, g := range old {
		if retErr == nil && g.known && g.maxEpoch <= watermark {
			if err := os.Remove(g.path); err != nil && !os.IsNotExist(err) {
				retErr = err
				kept = append(kept, g)
				continue
			}
			removed++
			if removed == 1 && midPoint != nil {
				if err := midPoint(); err != nil {
					retErr = err
				}
			}
			continue
		}
		kept = append(kept, g)
	}
	fs.closed = kept
	fs.reindexAdopted()
	if removed > 0 {
		if err := syncDir(fs.dir); err != nil && retErr == nil {
			retErr = err
		}
	}
	return removed, retErr
}

// reindexAdopted recomputes adopted indices after closed was rebuilt.
func (fs *FileSet) reindexAdopted() {
	fs.adopted = fs.adopted[:0]
	for i, g := range fs.closed {
		if !g.known {
			fs.adopted = append(fs.adopted, i)
		}
	}
}

// ClosedGens reports how many closed generation files are retained.
func (fs *FileSet) ClosedGens() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.closed)
}

// Close fsyncs and closes the active files. The owning DB must have
// been closed first (the logger flushes through these files).
func (fs *FileSet) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for _, f := range fs.active {
		if f == nil {
			continue
		}
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	fs.active = nil
	return first
}

// syncDir fsyncs a directory so entry creations/removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}
