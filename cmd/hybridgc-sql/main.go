// Command hybridgc-sql is an interactive SQL shell over the engine. It
// supports CREATE TABLE, INSERT, SELECT (with WHERE, ORDER BY, LIMIT,
// COUNT, SUM), UPDATE, DELETE and BEGIN [SNAPSHOT]/COMMIT/ROLLBACK, plus
// backslash commands for engine introspection (\stats, \gc, \tables).
//
// Usage:
//
//	hybridgc-sql                      # in-memory
//	hybridgc-sql -data ./mydb         # persistent (WAL + checkpoint)
//	echo "SELECT 1 FROM t" | hybridgc-sql -data ./mydb
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/sql"
)

func main() {
	var (
		dataDir = flag.String("data", "", "persistence directory (empty = in-memory)")
		autoGC  = flag.Bool("gc", true, "run the HybridGC collector loop")
	)
	flag.Parse()

	cfg := core.Config{AutoGC: *autoGC, GC: gc.DefaultPeriods()}
	if *dataDir != "" {
		cfg.Persistence = &core.Persistence{Dir: *dataDir}
	}
	db, err := core.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()
	cat, err := sql.NewCatalog(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catalog:", err)
		os.Exit(1)
	}
	sess := sql.NewSession(cat)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminalHint()
	if interactive {
		fmt.Println("hybridgc-sql — type SQL, \\help for commands, \\q to quit")
	}
	for {
		if interactive {
			if sess.InTransaction() {
				fmt.Print("txn> ")
			} else {
				fmt.Print("sql> ")
			}
		}
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !meta(db, cat, line) {
				return
			}
			continue
		}
		res, err := sess.Execute(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
	}
}

// meta handles backslash commands; returns false to quit.
func meta(db *core.DB, cat *sql.Catalog, line string) bool {
	switch strings.Fields(line)[0] {
	case "\\q", "\\quit":
		return false
	case "\\help":
		fmt.Println(`SQL: CREATE TABLE t (a INT, b TEXT)
     INSERT INTO t VALUES (1, 'x') | SELECT */cols/COUNT(*)/SUM(c) FROM t
       [WHERE c =|<|> v AND ...] [ORDER BY c [DESC]] [LIMIT n]
     UPDATE t SET a = 1 [WHERE ...] | DELETE FROM t [WHERE ...]
     BEGIN [SNAPSHOT] | COMMIT | ROLLBACK
views: m_version_space, m_snapshots, m_gc, m_gc_regions, m_tables, m_shards,
       m_htap (SELECT-only)
meta: \tables \stats \gc \checkpoint \q`)
	case "\\tables":
		for _, t := range cat.Tables() {
			cols := make([]string, len(t.Columns))
			for i, c := range t.Columns {
				cols[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
			}
			fmt.Printf("%s (%s)\n", t.Name, strings.Join(cols, ", "))
		}
	case "\\stats":
		st := db.Stats()
		fmt.Printf("versions: live=%d created=%d reclaimed=%d migrated=%d\n",
			st.VersionsLive, st.VersionsCreated, st.VersionsReclaimed, st.VersionsMigrated)
		fmt.Printf("snapshots active=%d, CID=%d, horizon=%d, hash collision=%.2f\n",
			st.ActiveSnapshots, st.CurrentCID, st.GlobalHorizon, st.Hash.CollisionRatio)
	case "\\gc":
		fmt.Println(db.GC().Collect())
	case "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("checkpoint written")
		}
	default:
		fmt.Println("unknown command; \\help lists commands")
	}
	return true
}

func printResult(res *sql.Result) {
	if res.Message != "" {
		fmt.Println(res.Message)
		return
	}
	if res.Columns == nil {
		fmt.Printf("%d row(s) affected\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// isTerminalHint reports whether stdin looks interactive without importing
// syscall specifics: piped input has a determinable size or is not a char
// device.
func isTerminalHint() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
