package sql

import "hybridgc/internal/colstore"

// The SQL layer's values, column types and column definitions are the
// engine's own row declarations under the names SQL gives them.
type (
	ColType   = colstore.ColumnType
	Datum     = colstore.Value
	ColumnDef = colstore.Column
)

// Column types.
const (
	TInt  = colstore.Int64
	TText = colstore.String
)

// IntD and TextD construct datums.
func IntD(v int64) Datum   { return colstore.IntV(v) }
func TextD(v string) Datum { return colstore.StrV(v) }

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota // =
	OpLt              // <
	OpGt              // >
)

// String implements fmt.Stringer.
func (o CmpOp) String() string {
	switch o {
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	default:
		return "="
	}
}

// Condition is one `col <op> value` predicate; WHERE clauses are AND-chains
// of these.
type Condition struct {
	Column string
	Op     CmpOp
	Value  Datum
}

// OrderBy is an optional ORDER BY column with direction.
type OrderBy struct {
	Column string
	Desc   bool
}

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// InsertStmt is INSERT INTO table VALUES (v, ...).
type InsertStmt struct {
	Table  string
	Values []Datum
}

// SelectStmt is SELECT cols|*|COUNT(*)|SUM(col)|MIN(col)|MAX(col) FROM
// table [WHERE ...] [GROUP BY col] [ORDER BY col [DESC]] [LIMIT n].
type SelectStmt struct {
	Table   string
	Columns []string // nil = *
	// Aggregate is "", "COUNT", "SUM", "MIN" or "MAX"; AggColumn names the
	// aggregate's argument (empty for COUNT(*)).
	Aggregate string
	AggColumn string
	// GroupBy names the GROUP BY column (aggregate queries only).
	GroupBy string
	Where   []Condition
	Order   *OrderBy
	Limit   int // 0 = unlimited
}

// UpdateStmt is UPDATE table SET col = v, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Condition // reuse Condition as column/value pairs
	Where []Condition
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where []Condition
}

// BeginStmt is BEGIN [TRANSACTION] [SNAPSHOT|STATEMENT]: SNAPSHOT selects
// Trans-SI, STATEMENT (the default) selects Stmt-SI.
type BeginStmt struct {
	TransSI bool
}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*CreateTableStmt) stmtNode() {}
func (*InsertStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*BeginStmt) stmtNode()       {}
func (*CommitStmt) stmtNode()      {}
func (*RollbackStmt) stmtNode()    {}
