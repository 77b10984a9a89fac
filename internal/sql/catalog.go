package sql

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/htap"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Errors returned by the SQL layer.
var (
	ErrUnknownTable  = errors.New("sql: unknown table")
	ErrUnknownColumn = errors.New("sql: unknown column")
	ErrTypeMismatch  = errors.New("sql: type mismatch")
	ErrNoTransaction = errors.New("sql: no transaction in progress")
	ErrInTransaction = errors.New("sql: transaction already in progress")
)

// metaTable is the engine table holding serialized schemas, so SQL-created
// tables survive recovery along with their data.
const metaTable = "__sql_schema"

// laneTable lists the SQL tables whose column lane is on, one row holding
// the table's name per lane. It is insert-only, and it is ordinary data: a
// lane recovers, checkpoints and replicates with it.
const laneTable = "__sql_lanes"

// TableInfo is one SQL table's compiled schema.
type TableInfo struct {
	Name    string
	ID      ts.TableID
	Columns []ColumnDef

	colIdx map[string]int
}

// ColumnIndex resolves a column name to its position.
func (t *TableInfo) ColumnIndex(name string) (int, error) {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, t.Name, name)
}

// Catalog maps SQL schemas onto engine tables and persists them through the
// meta table.
type Catalog struct {
	eng    engine.Engine
	metaID ts.TableID

	mu     sync.RWMutex
	tables map[string]*TableInfo
	htap   *htap.Manager
}

// NewCatalog builds the SQL catalog over a single-node database — the
// compatibility form of NewCatalogEngine.
func NewCatalog(db *core.DB) (*Catalog, error) {
	return NewCatalogEngine(engine.NewSingle(db))
}

// NewCatalogEngine builds (or re-attaches, after recovery) the SQL catalog
// over an engine. On a read-only replica the meta table cannot be created
// locally; it arrives through replication, so attachment is deferred until
// Refresh (or a Table miss) finds it.
func NewCatalogEngine(eng engine.Engine) (*Catalog, error) {
	c := &Catalog{eng: eng, tables: make(map[string]*TableInfo)}
	if eng.TableID(metaTable) == 0 && !eng.ReadOnly() {
		id, err := eng.CreateTable(metaTable)
		if err != nil {
			return nil, err
		}
		c.metaID = id
		return c, nil
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

// Refresh re-reads the meta table, picking up schemas that arrived since the
// catalog was built: through replication on a replica, through another
// catalog over the same engine on a primary. Known tables are kept. A schema
// row that does not decode is an error naming its RID, never a table that
// silently goes missing.
func (c *Catalog) Refresh() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.metaID == 0 {
		if c.metaID = c.eng.TableID(metaTable); c.metaID == 0 {
			return nil // nothing replicated yet
		}
	}
	var bad error
	err := c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		bad = nil
		return tx.Scan(c.metaID, func(rid ts.RID, img []byte) bool {
			name, cols, err := decodeSchema(img)
			if err != nil {
				bad = fmt.Errorf("sql: %s row %d: %w", metaTable, rid, err)
				return false
			}
			key := strings.ToLower(name)
			if _, known := c.tables[key]; known {
				return true
			}
			if id := c.eng.TableID(name); id != 0 {
				c.tables[key] = newTableInfo(name, id, cols)
			}
			return true
		})
	})
	return cmp.Or(err, bad)
}

func newTableInfo(name string, id ts.TableID, cols []ColumnDef) *TableInfo {
	ti := &TableInfo{Name: name, ID: id, Columns: cols,
		colIdx: make(map[string]int)}
	for i, c := range cols {
		ti.colIdx[strings.ToLower(c.Name)] = i
	}
	return ti
}

// CreateTable registers a SQL table: an engine table plus a schema row in
// the meta table.
func (c *Catalog) CreateTable(name string, cols []ColumnDef) (*TableInfo, error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("sql: table %q already exists", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("sql: duplicate column %q", col.Name)
		}
		seen[col.Name] = true
	}
	id, err := c.eng.CreateTable(name)
	if err != nil {
		return nil, err
	}
	err = c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		_, err := tx.Insert(c.metaID, encodeSchema(name, cols))
		return err
	})
	if err != nil {
		return nil, err
	}
	ti := newTableInfo(name, id, cols)
	c.tables[key] = ti
	return ti, nil
}

// Table resolves a SQL table by name. A miss triggers a Refresh first: the
// schema may have been written by another catalog or replicated in since the
// last lookup.
func (c *Catalog) Table(name string) (*TableInfo, error) {
	if t, ok := c.lookup(name); ok {
		return t, nil
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	if t, ok := c.lookup(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownTable, name)
}

func (c *Catalog) lookup(name string) (*TableInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables lists the SQL tables (sorted by name is not guaranteed).
func (c *Catalog) Tables() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableInfo, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Engine returns the underlying engine.
func (c *Catalog) Engine() engine.Engine { return c.eng }

// DB returns the underlying single-node engine (shard 0 on a sharded one) —
// the concrete handle monitoring helpers and tests use.
func (c *Catalog) DB() *core.DB { return c.eng.Shard(0) }

// --- row and schema codecs ---

// encodeRow serializes datums per the schema through the engine's one row
// codec; a row the schema rejects is the SQL layer's type mismatch.
func encodeRow(cols []ColumnDef, row []Datum) ([]byte, error) {
	img, err := colstore.EncodeRow(cols, row)
	if errors.Is(err, colstore.ErrSchemaMismatch) {
		err = fmt.Errorf("%w: %v", ErrTypeMismatch, err)
	}
	return img, err
}

// encodeSchema serializes a schema row for the meta table.
func encodeSchema(name string, cols []ColumnDef) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for _, c := range cols {
		b = append(b, byte(c.Type))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Name)))
		b = append(b, c.Name...)
	}
	return b
}

// decodeSchema parses a schema row.
func decodeSchema(b []byte) (string, []ColumnDef, error) {
	off := 0
	readStr := func() (string, bool) {
		if off+4 > len(b) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+n > len(b) {
			return "", false
		}
		s := string(b[off : off+n])
		off += n
		return s, true
	}
	name, ok := readStr()
	if !ok {
		return "", nil, errors.New("sql: corrupt schema row")
	}
	if off+4 > len(b) {
		return "", nil, errors.New("sql: corrupt schema row")
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	cols := make([]ColumnDef, 0, n)
	for i := 0; i < n; i++ {
		if off+1 > len(b) {
			return "", nil, errors.New("sql: corrupt schema row")
		}
		ct := ColType(b[off])
		off++
		cn, ok := readStr()
		if !ok {
			return "", nil, errors.New("sql: corrupt schema row")
		}
		cols = append(cols, ColumnDef{Name: cn, Type: ct})
	}
	if off != len(b) {
		return "", nil, errors.New("sql: trailing bytes in schema row")
	}
	return name, cols, nil
}
