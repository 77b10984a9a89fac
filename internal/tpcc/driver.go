package tpcc

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
)

// Table names as created in the catalog.
const (
	TableWarehouse = "WAREHOUSE"
	TableDistrict  = "DISTRICT"
	TableCustomer  = "CUSTOMER"
	TableHistory   = "HISTORY"
	TableNewOrder  = "NEWORDER"
	TableOrders    = "ORDERS"
	TableOrderLine = "ORDERLINE"
	TableItem      = "ITEM"
	TableStock     = "STOCK"
)

// Config scales the benchmark. The paper runs 100 warehouses with full TPC-C
// cardinalities on a 60-core 1 TB machine; the defaults here keep the same
// structure at laptop scale (behaviour depends on ratios, not absolute
// size).
type Config struct {
	Warehouses           int
	Districts            int // per warehouse; TPC-C fixes 10
	CustomersPerDistrict int // TPC-C: 3000
	Items                int // TPC-C: 100000
	Seed                 int64
	// CrossWarehouse enables the spec's remote clauses: 15% of Payments pay a
	// customer of another warehouse and 1% of NewOrder lines draw stock from a
	// remote supply warehouse (~10% of NewOrders end up remote). On a sharded
	// backend those transactions cross shards and commit through two-phase
	// commit; home-only transactions keep the pinned single-shard fast path.
	CrossWarehouse bool
}

func (c *Config) fill() {
	if c.Warehouses <= 0 {
		c.Warehouses = 4
	}
	if c.Districts <= 0 {
		c.Districts = 10
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 60
	}
	if c.Items <= 0 {
		c.Items = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// tables holds the catalog IDs of the nine TPC-C tables.
type tables struct {
	warehouse ts.TableID
	district  ts.TableID
	customer  ts.TableID
	history   ts.TableID
	newOrder  ts.TableID
	orders    ts.TableID
	orderLine ts.TableID
	item      ts.TableID
	stock     ts.TableID
}

// districtState is the driver-side bookkeeping for one district: RID indexes
// for dynamically inserted rows and the undelivered-order FIFO. The paper
// embeds equivalent logic in SQLScript; keeping it in the driver avoids
// building a SQL layer without changing what the storage engine sees.
type districtState struct {
	mu sync.Mutex
	// orderRID maps order id -> ORDERS RID.
	orderRID map[uint32]ts.RID
	// orderLines maps order id -> ORDER-LINE RIDs.
	orderLines map[uint32][]ts.RID
	// newOrderRID maps order id -> NEW-ORDER RID for undelivered orders.
	newOrderRID map[uint32]ts.RID
	// pending is the FIFO of undelivered order ids.
	pending []uint32
	// lastOrderOf maps customer id -> most recent order id.
	lastOrderOf map[uint32]uint32
	// byLastName maps customer last name -> customer ids (sorted by id).
	byLastName map[string][]uint32
}

func newDistrictState() *districtState {
	return &districtState{
		orderRID:    make(map[uint32]ts.RID),
		orderLines:  make(map[uint32][]ts.RID),
		newOrderRID: make(map[uint32]ts.RID),
		lastOrderOf: make(map[uint32]uint32),
		byLastName:  make(map[string][]uint32),
	}
}

// Driver owns a loaded TPC-C database and spawns per-warehouse workers.
type Driver struct {
	// DB is the in-process engine when the driver runs locally, nil when the
	// backend is remote.
	DB *core.DB
	be Backend
	// checkBE, when set, is where Check reads — a read-only replica
	// endpoint, for validating replicated state (see SetCheckBackend).
	checkBE Backend
	cfg     Config
	t       tables
	nu      nuRandC
	// shards is the backend's shard count (1 when unsharded); >1 switches the
	// profiles to shard-pinned fast paths with by-warehouse placements.
	shards int

	// dist[w-1][d-1] is the state of district d of warehouse w.
	dist [][]*districtState
}

// New creates a driver over an in-process engine and registers the nine
// tables.
func New(db *core.DB, cfg Config) (*Driver, error) {
	d, err := NewWithBackend(LocalBackend(db), cfg)
	if d != nil {
		d.DB = db
	}
	return d, err
}

// NewWithBackend creates a driver over any backend — an in-process engine or
// a remote server through internal/client — and registers the nine tables as
// SQL tables under their Schemas entries.
func NewWithBackend(be Backend, cfg Config) (*Driver, error) {
	cfg.fill()
	d := &Driver{be: be, cfg: cfg}
	var err error
	create := func(name string) ts.TableID {
		var id ts.TableID
		if err == nil {
			id, err = be.CreateTable(name, Schemas[name])
		}
		return id
	}
	d.t = tables{
		warehouse: create(TableWarehouse),
		district:  create(TableDistrict),
		customer:  create(TableCustomer),
		history:   create(TableHistory),
		newOrder:  create(TableNewOrder),
		orders:    create(TableOrders),
		orderLine: create(TableOrderLine),
		item:      create(TableItem),
		stock:     create(TableStock),
	}
	if err != nil {
		return nil, err
	}
	if err := d.installPlacements(); err != nil {
		return nil, err
	}
	d.nu = newNURandC(rand.New(rand.NewSource(cfg.Seed)))
	d.dist = make([][]*districtState, cfg.Warehouses)
	for w := range d.dist {
		d.dist[w] = make([]*districtState, cfg.Districts)
		for i := range d.dist[w] {
			d.dist[w][i] = newDistrictState()
		}
	}
	return d, nil
}

// Config returns the effective (filled) configuration.
func (d *Driver) Config() Config { return d.cfg }

// StockTableID returns the STOCK table's ID — the table the paper's
// long-duration cursor and Trans-SI scan target.
func (d *Driver) StockTableID() ts.TableID { return d.t.stock }

// TableIDsByName exposes the nine table IDs keyed by name.
func (d *Driver) TableIDsByName() map[string]ts.TableID {
	return map[string]ts.TableID{
		TableWarehouse: d.t.warehouse,
		TableDistrict:  d.t.district,
		TableCustomer:  d.t.customer,
		TableHistory:   d.t.history,
		TableNewOrder:  d.t.newOrder,
		TableOrders:    d.t.orders,
		TableOrderLine: d.t.orderLine,
		TableItem:      d.t.item,
		TableStock:     d.t.stock,
	}
}

// Deterministic RID formulas for the fixed-cardinality tables; rows are
// loaded in exactly this order so the engine's dense RID allocator matches.
func (d *Driver) warehouseRID(w uint32) ts.RID { return ts.RID(w) }
func (d *Driver) districtRID(w, dist uint32) ts.RID {
	return ts.RID((w-1)*uint32(d.cfg.Districts) + dist)
}
func (d *Driver) customerRID(w, dist, c uint32) ts.RID {
	perW := uint32(d.cfg.Districts * d.cfg.CustomersPerDistrict)
	return ts.RID((w-1)*perW + (dist-1)*uint32(d.cfg.CustomersPerDistrict) + c)
}
func (d *Driver) itemRID(i uint32) ts.RID { return ts.RID(i) }
func (d *Driver) stockRID(w, i uint32) ts.RID {
	return ts.RID((w-1)*uint32(d.cfg.Items) + i)
}

// Load populates all nine tables per TPC-C cardinalities (scaled), loadBatch
// rows to a transaction. It must run before any worker starts.
func (d *Driver) Load() error {
	r := rand.New(rand.NewSource(d.cfg.Seed + 17))
	now := time.Now().UnixNano()
	l := loader{d: d}

	// ITEM.
	for i := 1; i <= d.cfg.Items; i++ {
		row := Item{ID: uint32(i), ImID: uint32(randRange(r, 1, 10000)),
			Name: alphaString(r, 14, 24), Price: int64(randRange(r, 100, 10000)),
			Data: alphaString(r, 26, 50)}
		if err := l.add(loadRow{tid: d.t.item, want: d.itemRID(uint32(i)), img: row.Encode()}); err != nil {
			return err
		}
	}
	for w := 1; w <= d.cfg.Warehouses; w++ {
		wh := Warehouse{ID: uint32(w), Name: alphaString(r, 6, 10),
			Tax: int64(randRange(r, 0, 2000)), YTD: 30000000}
		if err := l.add(loadRow{tid: d.t.warehouse, want: d.warehouseRID(uint32(w)), img: wh.Encode()}); err != nil {
			return err
		}
	}
	for w := 1; w <= d.cfg.Warehouses; w++ {
		for dist := 1; dist <= d.cfg.Districts; dist++ {
			row := District{W: uint32(w), ID: uint32(dist), Name: alphaString(r, 6, 10),
				Tax: int64(randRange(r, 0, 2000)),
				YTD: 30000000 / int64(d.cfg.Districts), NextOID: 1}
			if err := l.add(loadRow{tid: d.t.district, want: d.districtRID(uint32(w), uint32(dist)), img: row.Encode()}); err != nil {
				return err
			}
		}
	}
	for w := 1; w <= d.cfg.Warehouses; w++ {
		for dist := 1; dist <= d.cfg.Districts; dist++ {
			st := d.state(uint32(w), uint32(dist))
			for c := 1; c <= d.cfg.CustomersPerDistrict; c++ {
				var last string
				if c <= 1000 {
					last = lastName(uint32(c-1) % 1000)
				} else {
					last = lastName(d.nu.randLastNameNum(r, d.cfg.CustomersPerDistrict))
				}
				credit := "GC"
				if r.Intn(10) == 0 {
					credit = "BC"
				}
				row := Customer{W: uint32(w), D: uint32(dist), ID: uint32(c),
					First: alphaString(r, 8, 16), Middle: []byte("OE"), Last: []byte(last),
					Credit: []byte(credit), CreditLim: 5000000,
					Discount: int64(randRange(r, 0, 5000)), Balance: -1000,
					YTDPayment: 1000, PaymentCnt: 1, Data: alphaString(r, 30, 60)}
				if err := l.add(loadRow{tid: d.t.customer, want: d.customerRID(uint32(w), uint32(dist), uint32(c)), img: row.Encode()}); err != nil {
					return err
				}
				st.byLastName[last] = append(st.byLastName[last], uint32(c))
			}
		}
	}
	for w := 1; w <= d.cfg.Warehouses; w++ {
		for i := 1; i <= d.cfg.Items; i++ {
			row := Stock{W: uint32(w), ItemID: uint32(i),
				Qty: int32(randRange(r, 10, 100)), Dist: alphaString(r, 24, 24),
				Data: alphaString(r, 26, 50)}
			if err := l.add(loadRow{tid: d.t.stock, want: d.stockRID(uint32(w), uint32(i)), img: row.Encode()}); err != nil {
				return err
			}
		}
	}
	// Initial HISTORY rows (one per customer, dynamic RIDs).
	for w := 1; w <= d.cfg.Warehouses; w++ {
		for dist := 1; dist <= d.cfg.Districts; dist++ {
			for c := 1; c <= d.cfg.CustomersPerDistrict; c++ {
				h := History{CW: uint32(w), CD: uint32(dist), CID: uint32(c),
					W: uint32(w), D: uint32(dist), Date: now, Amount: 1000,
					Data: alphaString(r, 12, 24)}
				if err := l.add(loadRow{tid: d.t.history, hint: d.shardOfW(uint32(w)), img: h.Encode()}); err != nil {
					return err
				}
			}
		}
	}
	return l.flush()
}

// loadBatch is how many rows Load inserts per transaction. One row each made
// the load a stream of one-version commits, each paying for a commit group
// and its collection; in a batch the rows share both.
const loadBatch = 64

// loader queues Load's rows and inserts them loadBatch to a transaction.
type loader struct {
	d    *Driver
	eb   eagerBatch
	rows []loadRow
}

// loadRow is one queued row: a fixed-cardinality row with the RID its
// formula gives it, or (want 0) a HISTORY row, inserted near shard hint.
type loadRow struct {
	tid  ts.TableID
	want ts.RID
	hint int
	img  []byte
	op   int // its insert's index in the batch
}

func (l *loader) add(r loadRow) error {
	l.rows = append(l.rows, r)
	if len(l.rows) < loadBatch {
		return nil
	}
	return l.flush()
}

// flush inserts the queued rows in one transaction and checks each
// fixed-cardinality row's RID against its formula.
func (l *loader) flush() error {
	if len(l.rows) == 0 {
		return nil
	}
	var rids [loadBatch]ts.RID
	err := l.d.exec(&l.eb, func(b batch) error {
		for i := range l.rows {
			r := &l.rows[i]
			if r.want == 0 {
				r.op = b.InsertAt(r.tid, r.img, r.hint)
			} else {
				r.op = b.Insert(r.tid, r.img)
			}
		}
		b.Commit()
		err := b.Do()
		for i, r := range l.rows {
			rids[i] = b.RID(r.op)
		}
		return err
	})
	for i, r := range l.rows {
		if err == nil && r.want != 0 && rids[i] != r.want {
			err = fmt.Errorf("tpcc: load order broke RID formula: got %d want %d", rids[i], r.want)
		}
	}
	l.rows = l.rows[:0]
	return err
}

func (d *Driver) state(w, dist uint32) *districtState {
	return d.dist[w-1][dist-1]
}

// installPlacements detects a sharded backend and installs the by-warehouse
// layout: fixed-cardinality tables interleave in blocks equal to their
// per-warehouse cardinality, so every row of warehouse w lands on shard
// (w-1) mod N and the load's dense global RID sequence still matches the RID
// formulas. ITEM — small, read-mostly, not warehouse-keyed — replicates to
// every shard so NewOrder's item lookups stay local. The dynamic tables
// (HISTORY, NEWORDER, ORDERS, ORDERLINE) round-robin but every insert carries
// the home warehouse's shard as a placement hint.
func (d *Driver) installPlacements() error {
	d.shards = 1
	sb, ok := d.be.(ShardedBackend)
	if !ok {
		return nil
	}
	n := sb.Shards()
	if n <= 1 {
		return nil
	}
	d.shards = n
	place := func(tid ts.TableID, p engine.Placement) error {
		return sb.SetPlacement(tid, p)
	}
	for _, pl := range []struct {
		tid ts.TableID
		p   engine.Placement
	}{
		{d.t.warehouse, engine.Placement{Kind: engine.PlaceInterleave, Size: 1}},
		{d.t.district, engine.Placement{Kind: engine.PlaceInterleave, Size: uint64(d.cfg.Districts)}},
		{d.t.customer, engine.Placement{Kind: engine.PlaceInterleave, Size: uint64(d.cfg.Districts * d.cfg.CustomersPerDistrict)}},
		{d.t.stock, engine.Placement{Kind: engine.PlaceInterleave, Size: uint64(d.cfg.Items)}},
		{d.t.item, engine.Placement{Kind: engine.PlaceReplicated}},
		{d.t.history, engine.Placement{Kind: engine.PlaceInterleave, Size: 1}},
		{d.t.newOrder, engine.Placement{Kind: engine.PlaceInterleave, Size: 1}},
		{d.t.orders, engine.Placement{Kind: engine.PlaceInterleave, Size: 1}},
		{d.t.orderLine, engine.Placement{Kind: engine.PlaceInterleave, Size: 1}},
	} {
		if err := place(pl.tid, pl.p); err != nil {
			return fmt.Errorf("tpcc: placing table %d: %w", pl.tid, err)
		}
	}
	return nil
}

// Shards reports the backend's shard count seen by the driver.
func (d *Driver) Shards() int { return d.shards }

// HomeShard reports warehouse w's home shard under the installed layout.
func (d *Driver) HomeShard(w uint32) int { return d.shardOfW(w) }

// shardOfW is warehouse w's home shard under the by-warehouse layout.
func (d *Driver) shardOfW(w uint32) int {
	if d.shards <= 1 {
		return 0
	}
	return int((w - 1) % uint32(d.shards))
}

// crossesShard reports whether touching warehouse other from home crosses a
// shard boundary (a warehouse boundary when the backend is unsharded, so the
// remote-share counter stays meaningful single-node).
func (d *Driver) crossesShard(home, other uint32) bool {
	if d.shards <= 1 {
		return home != other
	}
	return d.shardOfW(home) != d.shardOfW(other)
}
