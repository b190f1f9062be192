package core

import (
	"fmt"
	"math/rand"
	"testing"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// This file property-tests the heart of the paper's §4.4 claim: the
// effect of healing an invalidated transaction equals the effect of
// re-executing it from scratch against the post-conflict state.
//
// Strategy: generate a random procedure over a small KV table — a
// random DAG of reads (some used as keys downstream, some as values),
// computes, and writes. Execute its read phase; inject random
// committed external writes; let healing validate and commit. Then
// run the same procedure on an oracle database that already contains
// the external writes, serially. The two databases and the two output
// environments must agree exactly.

const eqKeys = 16

// randOp describes one generated operation.
type randOp struct {
	kind    int // 0 read, 1 write, 2 compute
	keyFrom int // -1: the op's fixed key; >=0: key comes from var of op i
	fixed   int64
	srcA    int // value inputs: outputs of ops srcA/srcB (or -1 = constant)
	srcB    int
	cnst    int64
}

// genProc turns a []randOp into a Spec. Variable v<i> is op i's
// output. Reads produce their cell value; computes produce a mix of
// their inputs; writes store a mix at their (possibly derived) key.
func genProc(ops []randOp) *proc.Spec {
	return &proc.Spec{
		Name: "Rand",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			for i, o := range ops {
				i, o := i, o
				out := fmt.Sprintf("v%d", i)
				var keyReads, valReads []string
				if o.keyFrom >= 0 {
					keyReads = append(keyReads, fmt.Sprintf("v%d", o.keyFrom))
				}
				if o.kind != 0 { // writes/computes consume value inputs
					if o.srcA >= 0 {
						valReads = append(valReads, fmt.Sprintf("v%d", o.srcA))
					}
					if o.srcB >= 0 && o.srcB != o.srcA {
						valReads = append(valReads, fmt.Sprintf("v%d", o.srcB))
					}
				}
				key := func(e *proc.Env) storage.Key {
					if o.keyFrom >= 0 {
						// Derived keys stay in range via modulo.
						k := e.Int(fmt.Sprintf("v%d", o.keyFrom)) % eqKeys
						if k < 0 {
							k = -k
						}
						return storage.Key(k)
					}
					return storage.Key(o.fixed)
				}
				val := func(e *proc.Env) int64 {
					v := o.cnst
					if o.srcA >= 0 {
						v += 3 * e.Int(fmt.Sprintf("v%d", o.srcA))
					}
					if o.srcB >= 0 {
						v += 7 * e.Int(fmt.Sprintf("v%d", o.srcB))
					}
					return v
				}
				switch o.kind {
				case 0: // read
					b.Op(proc.Op{
						Name:     fmt.Sprintf("read%d", i),
						KeyReads: keyReads,
						Writes:   []string{out},
						Body: func(ctx proc.OpCtx) error {
							row, ok, err := ctx.Read("KV", key(ctx.Env()), nil)
							if err != nil {
								return err
							}
							v := int64(0)
							if ok {
								v = row[0].Int()
							}
							ctx.Env().SetInt(out, v)
							return nil
						},
					})
				case 1: // write (also defines out so later ops can chain)
					b.Op(proc.Op{
						Name:     fmt.Sprintf("write%d", i),
						KeyReads: keyReads,
						ValReads: valReads,
						Writes:   []string{out},
						Body: func(ctx proc.OpCtx) error {
							e := ctx.Env()
							v := val(e)
							e.SetInt(out, v)
							return ctx.Write("KV", key(e), []int{0},
								[]storage.Value{storage.Int(v)})
						},
					})
				default: // compute
					b.Op(proc.Op{
						Name:     fmt.Sprintf("comp%d", i),
						ValReads: valReads,
						Writes:   []string{out},
						Body: func(ctx proc.OpCtx) error {
							ctx.Env().SetInt(out, val(ctx.Env()))
							return nil
						},
					})
				}
			}
		},
	}
}

// genOps draws a random well-formed op list.
func genOps(rng *rand.Rand, n int) []randOp {
	ops := make([]randOp, n)
	// Track which earlier ops produce usable outputs (all do).
	for i := range ops {
		o := &ops[i]
		o.kind = rng.Intn(3)
		if i == 0 {
			o.kind = 0 // start with a read
		}
		o.keyFrom = -1
		o.srcA, o.srcB = -1, -1
		o.fixed = rng.Int63n(eqKeys)
		o.cnst = rng.Int63n(100)
		if o.kind != 2 && i > 0 && rng.Intn(2) == 0 {
			o.keyFrom = rng.Intn(i) // key dependency
		}
		if o.kind != 0 && i > 0 {
			o.srcA = rng.Intn(i)
			if rng.Intn(2) == 0 {
				o.srcB = rng.Intn(i)
			}
		}
	}
	return ops
}

func kvCatalog(vals []int64) *storage.Catalog {
	cat := storage.NewCatalog()
	tab := cat.MustCreateTable(storage.Schema{
		Name:    "KV",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}},
	})
	for k, v := range vals {
		tab.Put(storage.Key(k), storage.Tuple{storage.Int(v)}, 0)
	}
	return cat
}

func kvState(cat *storage.Catalog) []int64 {
	tab, _ := cat.Table("KV")
	out := make([]int64, eqKeys)
	for k := 0; k < eqKeys; k++ {
		rec, ok := tab.Peek(storage.Key(k))
		if ok && rec.Visible() {
			out[k] = rec.Tuple()[0].Int()
		}
	}
	return out
}

func TestHealingEquivalentToReexecution(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		nOps := 2 + rng.Intn(8)
		ops := genOps(rng, nOps)
		spec := genProc(ops)

		initial := make([]int64, eqKeys)
		for i := range initial {
			initial[i] = rng.Int63n(1000)
		}
		// External committed writes injected mid-flight.
		nExt := 1 + rng.Intn(3)
		type ext struct {
			key storage.Key
			val int64
		}
		exts := make([]ext, nExt)
		for i := range exts {
			exts[i] = ext{storage.Key(rng.Int63n(eqKeys)), rng.Int63n(1000)}
		}

		// Healed execution: read phase on the initial state, external
		// commits, then validate-and-commit with healing.
		liveCat := kvCatalog(initial)
		liveEng := NewEngine(liveCat, Options{Protocol: Healing, Workers: 1})
		liveEng.MustRegister(spec)
		w := liveEng.Worker(0)
		env := spec.Bind(nil)
		prog := spec.Instantiate(env)
		txn := newTxn(w, prog, env, firstRung(w, false))
		if err := txn.readPhase(); err != nil {
			t.Fatalf("trial %d: read phase: %v", trial, err)
		}
		liveTab, _ := liveCat.Table("KV")
		for i, x := range exts {
			rec, _ := liveTab.Peek(x.key)
			rec.Lock()
			rec.SetTuple(storage.Tuple{storage.Int(x.val)})
			rec.SetTimestamp(storage.MakeTS(1, uint32(i+1)))
			rec.Unlock()
		}
		if err := txn.validateAndCommit(); err != nil {
			// A restart (deadlock prevention, divergence) is legal;
			// drive to completion through the public path, which is
			// serial here and must succeed.
			if err != errRestart {
				t.Fatalf("trial %d: %v", trial, err)
			}
			txn.finish(false)
			var rerr error
			env, rerr = w.Run("Rand")
			if rerr != nil {
				t.Fatalf("trial %d retry: %v", trial, rerr)
			}
		}

		// Oracle: serial execution on a database that already has the
		// external writes.
		oracleInit := append([]int64(nil), initial...)
		for _, x := range exts {
			oracleInit[x.key] = x.val
		}
		oracleCat := kvCatalog(oracleInit)
		oracleEng := NewEngine(oracleCat, Options{Protocol: Healing, Workers: 1})
		oracleEng.MustRegister(spec)
		oracleEnv, err := oracleEng.Worker(0).Run("Rand")
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}

		// Compare final database state and every output variable.
		liveState, oracleState := kvState(liveCat), kvState(oracleCat)
		for k := range liveState {
			if liveState[k] != oracleState[k] {
				t.Fatalf("trial %d: key %d healed=%d oracle=%d\nops: %+v\nexts: %+v",
					trial, k, liveState[k], oracleState[k], ops, exts)
			}
		}
		for i := 0; i < nOps; i++ {
			name := fmt.Sprintf("v%d", i)
			if env.Int(name) != oracleEnv.Int(name) {
				t.Fatalf("trial %d: output %s healed=%d oracle=%d\nops: %+v\nexts: %+v",
					trial, name, env.Int(name), oracleEnv.Int(name), ops, exts)
			}
		}
	}
}
