// Package smallbank implements the Smallbank benchmark (§5, [6]):
// three tables (ACCOUNTS, SAVINGS, CHECKING) and six short
// single-row-ish stored procedures over customer accounts. Workload
// contention is controlled by the Zipfian skew θ of the account
// picker. Every procedure's read/write set is determined by its
// arguments, so all Smallbank transactions are independent (§4.6):
// under transaction healing they can never abort, which is exactly
// what Table 2 reports.
package smallbank

import (
	"fmt"

	"thedb/internal/proc"
	"thedb/internal/storage"
)

// Table names.
const (
	TabAccounts = "ACCOUNTS"
	TabSavings  = "SAVINGS"
	TabChecking = "CHECKING"
)

// Column indexes.
const (
	AccName = 0 // ACCOUNTS.name
	BalCol  = 0 // SAVINGS.bal / CHECKING.bal (cents)
)

// Procedure names.
const (
	ProcBalance         = "Balance"
	ProcDepositChecking = "DepositChecking"
	ProcTransactSavings = "TransactSavings"
	ProcAmalgamate      = "Amalgamate"
	ProcWriteCheck      = "WriteCheck"
	ProcSendPayment     = "SendPayment"
)

// Schemas returns the three table schemas.
func Schemas() []storage.Schema {
	return []storage.Schema{
		{
			Name:    TabAccounts,
			Columns: []storage.ColumnDef{{Name: "name", Kind: storage.KindString}},
			Rank:    0,
		},
		{
			Name:    TabSavings,
			Columns: []storage.ColumnDef{{Name: "bal", Kind: storage.KindInt}},
			Rank:    1,
		},
		{
			Name:    TabChecking,
			Columns: []storage.ColumnDef{{Name: "bal", Kind: storage.KindInt}},
			Rank:    2,
		},
	}
}

// Populate creates n customer accounts with the given initial
// balances (cents).
func Populate(cat *storage.Catalog, n int, initSavings, initChecking int64) error {
	acc, ok := cat.Table(TabAccounts)
	if !ok {
		return fmt.Errorf("smallbank: catalog missing %s", TabAccounts)
	}
	sav, _ := cat.Table(TabSavings)
	chk, _ := cat.Table(TabChecking)
	ins := storage.NewInstaller()
	for i := 0; i < n; i++ {
		k := storage.Key(i)
		ins.Put(acc, k, storage.Tuple{storage.Str(fmt.Sprintf("cust%08d", i))}, 0)
		ins.Put(sav, k, storage.Tuple{storage.Int(initSavings)}, 0)
		ins.Put(chk, k, storage.Tuple{storage.Int(initChecking)}, 0)
	}
	return ins.Wait()
}

// readBalanceOp builds an op reading one balance column into outVar.
func readBalanceOp(name, table, keyVar, outVar string) proc.Op {
	return proc.Op{
		Name:     name,
		KeyReads: []string{keyVar},
		Writes:   []string{outVar},
		Body: func(ctx proc.OpCtx) error {
			row, ok, err := ctx.Read(table, storage.Key(ctx.Env().Int(keyVar)), []int{BalCol})
			if err != nil {
				return err
			}
			if !ok {
				return proc.UserAbort("no such account")
			}
			ctx.Env().SetVal(outVar, row[BalCol])
			return nil
		},
	}
}

// writeBalanceOp builds an op writing exprVar into one balance column.
func writeBalanceOp(name, table, keyVar string, valReads []string, compute func(e *proc.Env) int64) proc.Op {
	return proc.Op{
		Name:     name,
		KeyReads: []string{keyVar},
		ValReads: valReads,
		Body: func(ctx proc.OpCtx) error {
			e := ctx.Env()
			return ctx.Write(table, storage.Key(e.Int(keyVar)), []int{BalCol},
				[]storage.Value{storage.Int(compute(e))})
		},
	}
}

// Specs returns the six stored procedures.
func Specs() []*proc.Spec {
	return []*proc.Spec{
		balanceSpec(),
		depositCheckingSpec(),
		transactSavingsSpec(),
		amalgamateSpec(),
		writeCheckSpec(),
		sendPaymentSpec(),
	}
}

// homeCust and homeCusts name the customers a procedure touches: the
// partition keys THEDB-DT locks.
func homeCust(args []storage.Value) []int { return []int{int(args[0].Int())} }

func homeCusts(args []storage.Value) []int {
	return []int{int(args[0].Int()), int(args[1].Int())}
}

// balanceSpec: return savings + checking of one customer.
func balanceSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcBalance,
		Home:   homeCust,
		Params: []string{"cust"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readSav", TabSavings, "cust", "sav"))
			b.Op(readBalanceOp("readChk", TabChecking, "cust", "chk"))
			b.Op(proc.Op{
				Name:     "sum",
				ValReads: []string{"sav", "chk"},
				Writes:   []string{"total"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					e.SetInt("total", e.Int("sav")+e.Int("chk"))
					return nil
				},
			})
		},
	}
}

// depositCheckingSpec: checking += amount.
func depositCheckingSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcDepositChecking,
		Home:   homeCust,
		Params: []string{"cust", "amount"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readChk", TabChecking, "cust", "chk"))
			b.Op(writeBalanceOp("writeChk", TabChecking, "cust", []string{"chk", "amount"},
				func(e *proc.Env) int64 { return e.Int("chk") + e.Int("amount") }))
		},
	}
}

// transactSavingsSpec: savings += amount, abort on overdraft.
func transactSavingsSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcTransactSavings,
		Home:   homeCust,
		Params: []string{"cust", "amount"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readSav", TabSavings, "cust", "sav"))
			b.Op(proc.Op{
				Name:     "check",
				ValReads: []string{"sav", "amount"},
				Writes:   []string{"newSav"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					n := e.Int("sav") + e.Int("amount")
					if n < 0 {
						return proc.UserAbort("savings overdraft")
					}
					e.SetInt("newSav", n)
					return nil
				},
			})
			b.Op(writeBalanceOp("writeSav", TabSavings, "cust", []string{"newSav"},
				func(e *proc.Env) int64 { return e.Int("newSav") }))
		},
	}
}

// amalgamateSpec: move all funds of cust1 into cust2's checking.
func amalgamateSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcAmalgamate,
		Home:   homeCusts,
		Params: []string{"cust1", "cust2"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readSav1", TabSavings, "cust1", "sav1"))
			b.Op(readBalanceOp("readChk1", TabChecking, "cust1", "chk1"))
			b.Op(readBalanceOp("readChk2", TabChecking, "cust2", "chk2"))
			b.Op(writeBalanceOp("zeroSav1", TabSavings, "cust1", nil,
				func(*proc.Env) int64 { return 0 }))
			b.Op(writeBalanceOp("zeroChk1", TabChecking, "cust1", nil,
				func(*proc.Env) int64 { return 0 }))
			b.Op(writeBalanceOp("creditChk2", TabChecking, "cust2", []string{"sav1", "chk1", "chk2"},
				func(e *proc.Env) int64 { return e.Int("chk2") + e.Int("sav1") + e.Int("chk1") }))
		},
	}
}

// writeCheckSpec: deduct a check from checking, with a $1 overdraft
// penalty when total funds are insufficient.
func writeCheckSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcWriteCheck,
		Home:   homeCust,
		Params: []string{"cust", "amount"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readSav", TabSavings, "cust", "sav"))
			b.Op(readBalanceOp("readChk", TabChecking, "cust", "chk"))
			b.Op(proc.Op{
				Name:     "decide",
				ValReads: []string{"sav", "chk", "amount"},
				Writes:   []string{"newChk"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					amt := e.Int("amount")
					if e.Int("sav")+e.Int("chk") < amt {
						amt++ // overdraft penalty
					}
					e.SetInt("newChk", e.Int("chk")-amt)
					return nil
				},
			})
			b.Op(writeBalanceOp("writeChk", TabChecking, "cust", []string{"newChk"},
				func(e *proc.Env) int64 { return e.Int("newChk") }))
		},
	}
}

// sendPaymentSpec: move amount between two checking accounts, abort
// on insufficient funds.
func sendPaymentSpec() *proc.Spec {
	return &proc.Spec{
		Name:   ProcSendPayment,
		Home:   homeCusts,
		Params: []string{"cust1", "cust2", "amount"},
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(readBalanceOp("readChk1", TabChecking, "cust1", "chk1"))
			b.Op(readBalanceOp("readChk2", TabChecking, "cust2", "chk2"))
			b.Op(proc.Op{
				Name:     "check",
				ValReads: []string{"chk1", "amount"},
				Writes:   []string{"newChk1"},
				Body: func(ctx proc.OpCtx) error {
					e := ctx.Env()
					n := e.Int("chk1") - e.Int("amount")
					if n < 0 {
						return proc.UserAbort("insufficient funds")
					}
					e.SetInt("newChk1", n)
					return nil
				},
			})
			b.Op(writeBalanceOp("writeChk1", TabChecking, "cust1", []string{"newChk1"},
				func(e *proc.Env) int64 { return e.Int("newChk1") }))
			b.Op(writeBalanceOp("writeChk2", TabChecking, "cust2", []string{"chk2", "amount"},
				func(e *proc.Env) int64 { return e.Int("chk2") + e.Int("amount") }))
		},
	}
}

// TotalAssets sums all balances; transfers preserve it, deposits and
// checks change it by their amounts (tests track the delta).
func TotalAssets(cat *storage.Catalog) int64 {
	var total int64
	for _, name := range []string{TabSavings, TabChecking} {
		tab, _ := cat.Table(name)
		tab.ForEach(func(_ storage.Key, r *storage.Record) bool {
			if r.Visible() {
				total += r.Tuple()[BalCol].Int()
			}
			return true
		})
	}
	return total
}
