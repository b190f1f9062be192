// Package ycsb implements the YCSB core workloads over THEDB's
// stored-procedure IR: one USERTABLE with F value fields, point
// reads, field updates, inserts, short scans and read-modify-writes,
// with Zipfian-skewed key choice.
//
// The healing paper evaluates on TPC-C and Smallbank; YCSB is the
// third standard benchmark of this literature (Silo's evaluation uses
// it) and rounds out the workload suite for downstream users. All
// YCSB procedures are independent transactions (§4.6) — their keys
// come straight from the arguments — so like Smallbank they can never
// abort under transaction healing.
package ycsb

import (
	"fmt"
	"math/rand"

	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/workload/zipf"
)

// Table and layout.
const (
	TabUser = "USERTABLE"
	// Fields is the number of value columns (YCSB default is 10).
	Fields = 10
)

// Procedure names.
const (
	ProcRead   = "YCSBRead"
	ProcUpdate = "YCSBUpdate"
	ProcInsert = "YCSBInsert"
	ProcScan   = "YCSBScan"
	ProcRMW    = "YCSBReadModifyWrite"
	// ProcSnapScan is the analytics long scan: it reads a large key
	// range and aggregates without writing. Dispatchers run it on the
	// snapshot path (Session.RunSnapshot / Client.CallSnapshot), where
	// it commits with zero validation and cannot invalidate writers no
	// matter how many records it touches.
	ProcSnapScan = "YCSBSnapshotScan"
)

// IsReadOnly reports whether a procedure belongs on the snapshot
// (read-only, zero-validation) dispatch path rather than the
// healing-validated read-write path.
func IsReadOnly(name string) bool { return name == ProcSnapScan }

// Schema returns the USERTABLE schema.
func Schema() storage.Schema {
	cols := make([]storage.ColumnDef, Fields)
	for i := range cols {
		cols[i] = storage.ColumnDef{Name: fmt.Sprintf("field%d", i), Kind: storage.KindString}
	}
	return storage.Schema{
		Name:    TabUser,
		Columns: cols,
		Ordered: true,
	}
}

// Populate loads n records with deterministic field payloads.
func Populate(cat *storage.Catalog, n int, fieldLen int) error {
	tab, ok := cat.Table(TabUser)
	if !ok {
		return fmt.Errorf("ycsb: catalog missing %s", TabUser)
	}
	rng := rand.New(rand.NewSource(7))
	ins := storage.NewInstaller()
	for k := 0; k < n; k++ {
		ins.Put(tab, storage.Key(k), randomRow(rng, fieldLen), 0)
	}
	return ins.Wait()
}

func randomRow(rng *rand.Rand, fieldLen int) storage.Tuple {
	t := make(storage.Tuple, Fields)
	for i := range t {
		b := make([]byte, fieldLen)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		t[i] = storage.Str(string(b))
	}
	return t
}

// Specs returns the six YCSB stored procedures.
func Specs() []*proc.Spec {
	return []*proc.Spec{readSpec(), updateSpec(), insertSpec(), scanSpec(), rmwSpec(), snapScanSpec()}
}

// readSpec: read all fields of one record.
func readSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcRead,
		Params: []string{"k"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "read",
				KeyReads: []string{"k"},
				Writes:   []string{"f0"},
				Body: func(ctx proc.OpCtx) error {
					row, ok, err := ctx.Read(TabUser, storage.Key(ctx.Env().Int("k")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such record")
					}
					ctx.Env().SetVal("f0", row[0])
					return nil
				},
			})
		},
	}
}

// updateSpec: overwrite one field of one record.
func updateSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcUpdate,
		Params: []string{"k", "field", "value"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "update",
				KeyReads: []string{"k"},
				ValReads: []string{"field", "value"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					return ctx.Write(TabUser, storage.Key(e.Int("k")),
						[]int{int(e.Int("field")) % Fields},
						[]storage.Value{storage.Str(e.Str("value"))})
				},
			})
		},
	}
}

// insertSpec: create a record whose fields all carry value.
func insertSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcInsert,
		Params: []string{"k", "value"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "insert",
				KeyReads: []string{"k"},
				ValReads: []string{"value"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					t := make(storage.Tuple, Fields)
					for i := range t {
						t[i] = storage.Str(e.Str("value"))
					}
					return ctx.Insert(TabUser, storage.Key(e.Int("k")), t)
				},
			})
		},
	}
}

// scanSpec: scan up to count records starting at k, counting rows.
func scanSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcScan,
		Params: []string{"k", "count"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "scan",
				KeyReads: []string{"k", "count"},
				Writes:   []string{"rows"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					var rows int64
					err := ctx.Scan(TabUser, storage.Key(e.Int("k")), ^storage.Key(0),
						int(e.Int("count")), func(storage.Key, storage.Tuple) bool {
							rows++
							return true
						})
					if err != nil {
						return err
					}
					e.SetInt("rows", rows)
					return nil
				},
			})
		},
	}
}

// snapScanSpec: aggregate over up to count records starting at k —
// row count plus total bytes in field0. Read-only by construction
// (snapshot OpCtx rejects writes), sized for analytics: callers pass
// counts in the hundreds or thousands where an OCC scan's read set
// would make it a near-certain validation victim under write churn.
func snapScanSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcSnapScan,
		Params: []string{"k", "count"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "snapscan",
				KeyReads: []string{"k", "count"},
				Writes:   []string{"rows", "bytes"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					var rows, bytes int64
					err := ctx.Scan(TabUser, storage.Key(e.Int("k")), ^storage.Key(0),
						int(e.Int("count")), func(_ storage.Key, t storage.Tuple) bool {
							rows++
							bytes += int64(len(t[0].Str()))
							return true
						})
					if err != nil {
						return err
					}
					e.SetInt("rows", rows)
					e.SetInt("bytes", bytes)
					return nil
				},
			})
		},
	}
}

// rmwSpec: read all fields, then overwrite one (YCSB workload F).
func rmwSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcRMW,
		Params: []string{"k", "field", "value"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{
				Name:     "read",
				KeyReads: []string{"k"},
				Writes:   []string{"old"},
				Body: func(ctx proc.OpCtx) error {
					row, ok, err := ctx.Read(TabUser, storage.Key(ctx.Env().Int("k")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return proc.UserAbort("no such record")
					}
					ctx.Env().SetVal("old", row[0])
					return nil
				},
			})
			b.Op(proc.Op{
				Name:     "write",
				KeyReads: []string{"k"},
				ValReads: []string{"field", "value", "old"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					// Append semantics make lost updates detectable:
					// the new value chains onto the one read.
					v := e.Str("old")
					if len(v) > 64 {
						v = v[:64]
					}
					return ctx.Write(TabUser, storage.Key(e.Int("k")),
						[]int{int(e.Int("field")) % Fields},
						[]storage.Value{storage.Str(e.Str("value") + "|" + v)})
				},
			})
		},
	}
}

// Workload mixes, as YCSB letters: proportions of read/update/insert/
// scan/rmw in percent.
type Mix struct {
	ReadPct, UpdatePct, InsertPct, ScanPct, RMWPct int
	// SnapScanPct is the share of snapshot long scans (ProcSnapScan),
	// dispatched on the read-only snapshot path.
	SnapScanPct int
}

// Standard mixes.
var (
	// WorkloadA is update-heavy: 50/50 read/update.
	WorkloadA = Mix{ReadPct: 50, UpdatePct: 50}
	// WorkloadB is read-mostly: 95/5.
	WorkloadB = Mix{ReadPct: 95, UpdatePct: 5}
	// WorkloadC is read-only.
	WorkloadC = Mix{ReadPct: 100}
	// WorkloadE is scan-heavy: 95 scan / 5 insert.
	WorkloadE = Mix{ScanPct: 95, InsertPct: 5}
	// WorkloadF is read-modify-write: 50 read / 50 RMW.
	WorkloadF = Mix{ReadPct: 50, RMWPct: 50}
	// WorkloadSnap is read-mostly OLTP with analytics riding along:
	// 70 point reads / 25 updates keep the write churn real while 5%
	// snapshot long scans sweep hundreds of records each. The scans
	// run on the zero-validation snapshot path, so unlike an OCC scan
	// mix (workload E) they neither abort nor invalidate the writers.
	WorkloadSnap = Mix{ReadPct: 70, UpdatePct: 25, SnapScanPct: 5}
)

// Gen draws requests for one worker.
type Gen struct {
	mix     Mix
	rng     *rand.Rand
	zg      *zipf.Generator
	n       int
	nextIns int64
	worker  int64
}

// NewGen builds a generator over n records with the given skew.
func NewGen(mix Mix, n int, theta float64, worker int) *Gen {
	return &Gen{
		mix:     mix,
		rng:     rand.New(rand.NewSource(int64(worker)*104729 + 3)),
		zg:      zipf.New(uint64(n), theta),
		n:       n,
		worker:  int64(worker),
		nextIns: 1,
	}
}

// Next draws one request: procedure name plus arguments.
func (g *Gen) Next() (string, []storage.Value) {
	key := storage.Int(int64(g.zg.Next(g.rng.Float64())))
	field := storage.Int(int64(g.rng.Intn(Fields)))
	val := storage.Str(fmt.Sprintf("w%d-%d", g.worker, g.rng.Int31()))
	p := g.rng.Intn(100)
	m := g.mix
	switch {
	case p < m.ReadPct:
		return ProcRead, []storage.Value{key}
	case p < m.ReadPct+m.UpdatePct:
		return ProcUpdate, []storage.Value{key, field, val}
	case p < m.ReadPct+m.UpdatePct+m.InsertPct:
		// Unique keys above the populated range, per worker.
		g.nextIns++
		k := int64(g.n) + g.worker<<32 + g.nextIns
		return ProcInsert, []storage.Value{storage.Int(k), val}
	case p < m.ReadPct+m.UpdatePct+m.InsertPct+m.ScanPct:
		return ProcScan, []storage.Value{key, storage.Int(int64(1 + g.rng.Intn(20)))}
	case p < m.ReadPct+m.UpdatePct+m.InsertPct+m.ScanPct+m.SnapScanPct:
		// Long scans start at a uniform key so they sweep cold and hot
		// ranges alike; length 200-1000 rows dwarfs the OCC scan cap.
		start := storage.Int(int64(g.rng.Intn(g.n)))
		return ProcSnapScan, []storage.Value{start, storage.Int(int64(200 + g.rng.Intn(801)))}
	default:
		return ProcRMW, []storage.Value{key, field, val}
	}
}
