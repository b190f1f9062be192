package kv

import (
	"testing"

	"thedb/internal/core"
	"thedb/internal/storage"
)

func TestPutGetInc(t *testing.T) {
	cat := storage.NewCatalog()
	cat.MustCreateTable(Schema())
	e := core.NewEngine(cat, core.Options{Protocol: core.Healing, Workers: 1})
	for _, s := range Specs() {
		e.MustRegister(s)
	}
	e.Start()
	defer func() { _ = e.Stop() }()
	w := e.Worker(0)
	// run calls name and returns what it wrote: found and val.
	run := func(name string, args ...int64) map[string]int64 {
		t.Helper()
		vals := make([]storage.Value, len(args))
		for i, a := range args {
			vals[i] = storage.Int(a)
		}
		env, err := w.Run(name, vals...)
		if err != nil {
			t.Fatalf("%s%v: %v", name, args, err)
		}
		out := map[string]int64{}
		for _, n := range []string{"found", "val"} {
			if env.Has(n) {
				out[n] = env.Int(n)
			}
		}
		return out
	}

	if got := run(ProcGet, 7); got["found"] != 0 || got["val"] != 0 {
		t.Fatalf("get of an absent key = %v, want found=0 val=0", got)
	}
	run(ProcPut, 7, 42)
	if got := run(ProcGet, 7); got["found"] != 1 || got["val"] != 42 {
		t.Fatalf("get after put = %v, want found=1 val=42", got)
	}
	if got := run(ProcInc, 8, 5); got["val"] != 5 {
		t.Fatalf("inc of an absent key = %v, want val=5", got)
	}
	if got := run(ProcInc, 8, 3); got["val"] != 8 {
		t.Fatalf("inc of a present key = %v, want val=8", got)
	}
	if got := run(ProcGet, 8); got["found"] != 1 || got["val"] != 8 {
		t.Fatalf("get after two incs = %v, want found=1 val=8", got)
	}
}
