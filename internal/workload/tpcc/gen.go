package tpcc

import (
	"math/rand"

	"thedb/internal/storage"
)

// Mix controls the transaction generator.
type Mix struct {
	// NewOrderPct etc. are cumulative percentages of the standard
	// mix; the zero Mix gets the TPC-C full mix (45/43/4/4/4).
	NewOrderPct    int
	PaymentPct     int
	OrderStatusPct int
	DeliveryPct    int
	// RemotePct is the probability (percent) that a NewOrder touches
	// a remote warehouse, i.e. is cross-partition (Fig. 12). The
	// TPC-C default is 1%.
	RemotePct int
	// PaymentByNamePct selects customers by last name (the spec's
	// 60%).
	PaymentByNamePct int
	// RollbackPct is NewOrder's user-abort share (the spec's 1%).
	RollbackPct int
	// NewOrderOnly restricts the mix to NewOrder transactions
	// (used by several single-procedure experiments).
	NewOrderOnly bool
}

// StandardMix returns the TPC-C default transaction mix.
func StandardMix() Mix {
	return Mix{
		NewOrderPct:      45,
		PaymentPct:       43,
		OrderStatusPct:   4,
		DeliveryPct:      4,
		RemotePct:        1,
		PaymentByNamePct: 60,
		RollbackPct:      1,
	}
}

func (m *Mix) defaults() {
	if m.NewOrderPct == 0 && m.PaymentPct == 0 && m.OrderStatusPct == 0 && m.DeliveryPct == 0 {
		std := StandardMix()
		std.RemotePct = m.RemotePct
		std.RollbackPct = m.RollbackPct
		std.PaymentByNamePct = m.PaymentByNamePct
		if std.PaymentByNamePct == 0 {
			std.PaymentByNamePct = 60
		}
		*m = std
	}
}

// Gen produces transaction requests for one worker. Not safe for
// concurrent use: one Gen per worker, each with a distinct id.
type Gen struct {
	cfg      Config
	mix      Mix
	rng      *rand.Rand
	workerID int64
	hSeq     int64
	dateSeq  int64
	cLoad    int64 // NURand C constant for customer ids
	cRun     int64
	iC       int64 // NURand C constant for item ids

	// homeW pins the worker to a home warehouse (round-robin), the
	// standard terminal model.
	homeW int64
}

// NewGen builds a generator for worker id over the given scale.
func NewGen(cfg Config, mix Mix, workerID int) *Gen {
	cfg.defaults()
	mix.defaults()
	g := &Gen{
		cfg:      cfg,
		mix:      mix,
		rng:      rand.New(rand.NewSource(cfg.Seed + int64(workerID)*7919 + 1)),
		workerID: int64(workerID),
		cLoad:    223, // spec-compliant constants
		cRun:     259,
		iC:       7911 % 8192,
		homeW:    int64(workerID%cfg.Warehouses) + 1,
	}
	return g
}

// nuRand is the TPC-C non-uniform random function.
func nuRand(rng *rand.Rand, a, x, y int64) int64 {
	c := (a + 1) / 2 // any constant in [0, A]; fixed per generator class
	return (((rng.Int63n(a+1) | (x + rng.Int63n(y-x+1))) + c) % (y - x + 1)) + x
}

// Request is one generated transaction.
type Request struct {
	Proc string
	Args []storage.Value
	// CrossPartition marks requests touching more than one
	// warehouse.
	CrossPartition bool
}

// Next draws the next request following the mix.
func (g *Gen) Next() Request {
	p := g.rng.Intn(100)
	m := g.mix
	if m.NewOrderOnly {
		return g.NewOrder()
	}
	switch {
	case p < m.NewOrderPct:
		return g.NewOrder()
	case p < m.NewOrderPct+m.PaymentPct:
		return g.Payment()
	case p < m.NewOrderPct+m.PaymentPct+m.OrderStatusPct:
		return g.OrderStatus()
	case p < m.NewOrderPct+m.PaymentPct+m.OrderStatusPct+m.DeliveryPct:
		return g.Delivery()
	default:
		return g.StockLevel()
	}
}

func (g *Gen) customerID() int64 {
	return nuRand(g.rng, 1023, 1, int64(g.cfg.CustomersPerDistrict))
}

func (g *Gen) itemID() int64 {
	return nuRand(g.rng, 8191, 1, int64(g.cfg.Items))
}

func (g *Gen) otherWarehouse(w int64) int64 {
	if g.cfg.Warehouses == 1 {
		return w
	}
	for {
		o := int64(g.rng.Intn(g.cfg.Warehouses)) + 1
		if o != w {
			return o
		}
	}
}

// NewOrder generates a NewOrder request.
func (g *Gen) NewOrder() Request {
	w := g.homeW
	d := int64(g.rng.Intn(g.cfg.DistrictsPerW)) + 1
	c := g.customerID()
	olCnt := int64(5 + g.rng.Intn(11))
	g.dateSeq++
	rbk := int64(0)
	if g.mix.RollbackPct > 0 && g.rng.Intn(100) < g.mix.RollbackPct {
		rbk = 1
	}
	cross := g.mix.RemotePct > 0 && g.rng.Intn(100) < g.mix.RemotePct

	args := []storage.Value{
		storage.Int(w), storage.Int(d), storage.Int(c),
		storage.Int(olCnt), storage.Int(g.dateSeq), storage.Int(rbk),
	}
	remoteLine := -1
	if cross {
		remoteLine = g.rng.Intn(int(olCnt))
	}
	for j := 0; j < int(olCnt); j++ {
		iid := g.itemID()
		if rbk == 1 && j == int(olCnt)-1 {
			iid = int64(g.cfg.Items) + 1000 // unused item: triggers rollback
		}
		sup := w
		if j == remoteLine {
			sup = g.otherWarehouse(w)
		}
		qty := int64(1 + g.rng.Intn(10))
		args = append(args, storage.Int(iid), storage.Int(sup), storage.Int(qty))
	}
	return Request{Proc: ProcNewOrder, Args: args, CrossPartition: cross}
}

// Payment generates a Payment request.
func (g *Gen) Payment() Request {
	w := g.homeW
	d := int64(g.rng.Intn(g.cfg.DistrictsPerW)) + 1
	cw, cd := w, d
	cross := false
	// The spec pays remote customers 15% of the time; the paper's
	// partition experiments drive cross-partition share through
	// NewOrder only, so remote Payment follows RemotePct here too.
	if g.mix.RemotePct > 0 && g.cfg.Warehouses > 1 && g.rng.Intn(100) < g.mix.RemotePct {
		cw = g.otherWarehouse(w)
		cd = int64(g.rng.Intn(g.cfg.DistrictsPerW)) + 1
		cross = true
	}
	c := int64(0)
	last := ""
	if g.rng.Intn(100) < g.mix.PaymentByNamePct {
		last = LastName(int(nuRand(g.rng, 255, 0, 999)))
	} else {
		c = g.customerID()
	}
	amount := int64(100 + g.rng.Intn(500000)) // $1.00 - $5000.00
	g.hSeq++
	hid := g.workerID<<28 | g.hSeq
	g.dateSeq++
	return Request{
		Proc: ProcPayment,
		Args: []storage.Value{
			storage.Int(w), storage.Int(d), storage.Int(cw), storage.Int(cd),
			storage.Int(c), storage.Str(last), storage.Int(amount),
			storage.Int(hid), storage.Int(g.dateSeq),
		},
		CrossPartition: cross,
	}
}

// OrderStatus generates an OrderStatus request.
func (g *Gen) OrderStatus() Request {
	w := g.homeW
	d := int64(g.rng.Intn(g.cfg.DistrictsPerW)) + 1
	c := int64(0)
	last := ""
	if g.rng.Intn(100) < 60 {
		last = LastName(int(nuRand(g.rng, 255, 0, 999)))
	} else {
		c = g.customerID()
	}
	return Request{
		Proc: ProcOrderStatus,
		Args: []storage.Value{storage.Int(w), storage.Int(d), storage.Int(c), storage.Str(last)},
	}
}

// Delivery generates a Delivery request.
func (g *Gen) Delivery() Request {
	g.dateSeq++
	return Request{
		Proc: ProcDelivery,
		Args: []storage.Value{
			storage.Int(g.homeW),
			storage.Int(int64(1 + g.rng.Intn(10))),
			storage.Int(g.dateSeq),
			storage.Int(int64(g.cfg.DistrictsPerW)),
		},
	}
}

// StockLevel generates a StockLevel request.
func (g *Gen) StockLevel() Request {
	return Request{
		Proc: ProcStockLevel,
		Args: []storage.Value{
			storage.Int(g.homeW),
			storage.Int(int64(g.rng.Intn(g.cfg.DistrictsPerW)) + 1),
			storage.Int(int64(10 + g.rng.Intn(11))),
			storage.Int(20),
		},
	}
}

// DependencyGraphs renders the program dependency graphs of NewOrder
// and Delivery for representative arguments — the paper's Figure 15.
func DependencyGraphs() []string {
	var out []string
	{
		spec := newOrderSpec()
		args := []storage.Value{
			storage.Int(1), storage.Int(1), storage.Int(1),
			storage.Int(2), storage.Int(1), storage.Int(0),
			storage.Int(1), storage.Int(1), storage.Int(5),
			storage.Int(2), storage.Int(1), storage.Int(5),
		}
		out = append(out, spec.Instantiate(spec.Bind(args)).Graph())
	}
	{
		spec := deliverySpec()
		args := []storage.Value{storage.Int(1), storage.Int(1), storage.Int(1), storage.Int(2)}
		out = append(out, spec.Instantiate(spec.Bind(args)).Graph())
	}
	return out
}
