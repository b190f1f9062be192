// Package kv is the smallest served catalog: one ordered KV table of
// int values and three procedures over it — a lookup, an upsert and
// an increment. thedb-server serves it with -workload kv, thedb-shell
// opens its table and calls its procedures in remote mode, and the
// serving-plane tests drive it. KVInc is the catalog's read-modify-
// write: a call applied twice shows in the value forever, which is
// what the exactly-once tests look for.
package kv

import (
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// Tab is the table's name; it has one int column.
const Tab = "KV"

// Procedure names.
const (
	// ProcGet(key) writes found (1 or 0) and val (0 when absent).
	ProcGet = "KVGet"
	// ProcPut(key, val) inserts or overwrites the row.
	ProcPut = "KVPut"
	// ProcInc(key, delta) adds delta to the row (absent counts as 0)
	// and writes the new value as val.
	ProcInc = "KVInc"
)

// Schema returns the KV table's schema.
func Schema() storage.Schema {
	return storage.Schema{
		Name:    Tab,
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
		Ordered: true,
	}
}

// Specs returns the three procedures.
func Specs() []*proc.Spec {
	return []*proc.Spec{
		{
			Name:   ProcGet,
			Params: []string{"key"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name:     "get",
					KeyReads: []string{"key"},
					Writes:   []string{"found", "val"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						row, ok, err := ctx.Read(Tab, storage.Key(e.Int("key")), nil)
						if err != nil {
							return err
						}
						if !ok {
							e.SetInt("found", 0)
							e.SetInt("val", 0)
							return nil
						}
						e.SetInt("found", 1)
						e.SetVal("val", row[0])
						return nil
					},
				})
			},
		},
		{
			Name:   ProcPut,
			Params: []string{"key", "val"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name:     "upsert",
					KeyReads: []string{"key"},
					ValReads: []string{"val"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						k := storage.Key(e.Int("key"))
						_, ok, err := ctx.Read(Tab, k, nil)
						if err != nil {
							return err
						}
						return store(ctx, k, e.Val("val"), ok)
					},
				})
			},
		},
		{
			Name:   ProcInc,
			Params: []string{"key", "delta"},
			Plan: func(b *proc.Builder, _ *proc.Env) {
				b.Op(proc.Op{
					Name:     "inc",
					KeyReads: []string{"key"},
					ValReads: []string{"delta"},
					Writes:   []string{"val"},
					Body: func(ctx proc.OpCtx) error {
						e := ctx.Env()
						k := storage.Key(e.Int("key"))
						row, ok, err := ctx.Read(Tab, k, nil)
						if err != nil {
							return err
						}
						next := e.Int("delta")
						if ok {
							next += row[0].Int()
						}
						e.SetInt("val", next)
						return store(ctx, k, storage.Int(next), ok)
					},
				})
			},
		},
	}
}

// store writes v at k: an overwrite when the row exists, an insert
// when it does not.
func store(ctx proc.OpCtx, k storage.Key, v storage.Value, exists bool) error {
	if exists {
		return ctx.Write(Tab, k, []int{0}, []storage.Value{v})
	}
	return ctx.Insert(Tab, k, storage.Tuple{v})
}
