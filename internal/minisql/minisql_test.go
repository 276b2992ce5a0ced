package minisql

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE users (id INT PRIMARY KEY, age INT, score INTEGER)")
	if res := mustExec(t, db, "INSERT INTO users VALUES (1, 36, -5), (2, 41, 7);"); res.Affected != 2 {
		t.Errorf("insert affected %d, want 2", res.Affected)
	}
	res := mustExec(t, db, "select * from USERS where ID = 2")
	if fmt.Sprint(res.Columns) != "[id age score]" {
		t.Errorf("columns = %v", res.Columns)
	}
	if fmt.Sprint(res.Rows) != "[[2 41 7]]" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestWhereOperators(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	if res := mustExec(t, db, "SELECT b FROM t WHERE a = 2"); fmt.Sprint(res.Rows) != "[[20]]" {
		t.Errorf("a = 2 found %v, want [[20]]", res.Rows)
	}
	// Equality on the key is the one condition; every other operator is
	// refused by name, not answered by a scan.
	for _, op := range []string{"!=", "<", "<=", ">", ">="} {
		_, err := db.Exec("SELECT b FROM t WHERE a " + op + " 2")
		if err == nil || !strings.Contains(err.Error(), `"`+op+`"`) {
			t.Errorf("WHERE a %s 2: error %v, want one naming %q", op, err, op)
		}
	}
}

func TestProjection(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 5, 9)")
	res := mustExec(t, db, "SELECT c, a FROM t WHERE a = 1")
	if len(res.Columns) != 2 || res.Columns[0] != "c" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0] != 9 || res.Rows[0][1] != 1 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestPrimaryKeyEnforcedAndIndexed(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 70)")
	if _, err := db.Exec("INSERT INTO t VALUES (7, 71)"); err == nil {
		t.Error("duplicate PK accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (8, 80), (8, 81)"); err == nil {
		t.Error("duplicate PK within one statement accepted")
	}
	res := mustExec(t, db, "SELECT v FROM t WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0] != 70 {
		t.Errorf("indexed lookup = %v", res.Rows)
	}
	// Missing key.
	res2 := mustExec(t, db, "SELECT v FROM t WHERE id = 9")
	if len(res2.Rows) != 0 {
		t.Errorf("phantom row %v", res2.Rows)
	}
}

func TestTypeChecking(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	for _, sql := range []string{
		"INSERT INTO t VALUES (1)",                      // arity
		"INSERT INTO t VALUES (1, x)",                   // a value is a number
		"INSERT INTO t VALUES (1, 9223372036854775808)", // past int64
		"SELECT nope FROM t WHERE a = 1",                // unknown column
		"SELECT * FROM ghost WHERE a = 1",               // unknown table
		"CREATE TABLE t (a INT)",                        // table exists
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t (a INT PRIMARY)",
		"CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (1,)",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE a ~ 1",
		"INSERT INTO t VALUES (1) garbage",
	}
	for _, sql := range bad {
		if _, err := parse(sql); err == nil {
			t.Errorf("parsed invalid SQL: %q", sql)
		}
	}
}

// refusal is a statement outside the three shapes the Twine study issues,
// and the word its error must name.
type refusal struct{ sql, names string }

// expectRefused drives each statement through Exec on both stores: each is
// refused with an error that names it, and leaves the table as it was.
func expectRefused(t *testing.T, cases []refusal) {
	t.Helper()
	for _, store := range []struct {
		name    string
		factory StoreFactory
	}{{"native", nil}, {"wasm", WasmFactory}} {
		db := NewDB(store.factory)
		mustExec(t, db, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
		mustExec(t, db, "INSERT INTO kv VALUES (1, 3), (2, 6)")
		for _, c := range cases {
			_, err := db.Exec(c.sql)
			if err == nil || !strings.Contains(err.Error(), c.names) {
				t.Errorf("%s: %q gave %v, want an error naming %s", store.name, c.sql, err, c.names)
			}
		}
		if res := mustExec(t, db, "SELECT * FROM kv WHERE k = 1"); fmt.Sprint(res.Rows) != "[[1 3]]" {
			t.Errorf("%s: after the refusals k = 1 reads %v, want [[1 3]]", store.name, res.Rows)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	expectRefused(t, []refusal{
		{"UPDATE kv SET v = 9 WHERE k = 1", "UPDATE"},
		{"DELETE FROM kv WHERE k = 1", "DELETE"},
	})
}

func TestStringEscapes(t *testing.T) {
	// Every value is INT: a TEXT column and a string literal, escaped
	// quote or not, are refused by name.
	expectRefused(t, []refusal{
		{"CREATE TABLE s (k INT PRIMARY KEY, name TEXT)", "TEXT"},
		{"INSERT INTO kv VALUES (3, 'nine')", "string literal"},
		{"INSERT INTO kv VALUES (3, 'it''s')", "string literal"},
	})
}

func TestDropTable(t *testing.T) {
	expectRefused(t, []refusal{{"DROP TABLE kv", "DROP"}})
}

func TestRefusedShapes(t *testing.T) {
	expectRefused(t, []refusal{
		{"SELECT v FROM kv WHERE k > 1", `">"`},
		{"SELECT v FROM kv WHERE k = 1 AND v = 3", "AND"},
		{"SELECT v FROM kv", "no scans"},
		{"SELECT k FROM kv WHERE v = 3", "no scans"},
		{"SELECT COUNT(*) FROM kv WHERE k = 1", "COUNT"},
	})
}

func TestWasmStoreMatchesNative(t *testing.T) {
	// The Twine study's statements produce identical results on both
	// stores — the functional-equivalence property.
	nativeDB := NewDB(nil)
	wasmDB := NewDB(WasmFactory)
	stmts := []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v INT)",
		"INSERT INTO kv VALUES (1, 3), (2, 6), (3, 9)",
		"INSERT INTO kv VALUES (10, 30)",
		"INSERT INTO kv VALUES (-4, -12)",
	}
	for _, s := range stmts {
		mustExec(t, nativeDB, s)
		mustExec(t, wasmDB, s)
	}
	queries := []string{
		"SELECT v FROM kv WHERE k = 2",
		"SELECT v FROM kv WHERE k = 4",
		"SELECT v FROM kv WHERE k = -4",
		"SELECT * FROM kv WHERE k = 10",
		"SELECT v, k FROM kv WHERE k = 3",
		"SELECT v FROM kv WHERE k = 4294967297", // past int32: absent in both
	}
	for _, q := range queries {
		a := mustExec(t, nativeDB, q)
		b := mustExec(t, wasmDB, q)
		if fmt.Sprint(a.Columns, a.Rows) != fmt.Sprint(b.Columns, b.Rows) {
			t.Errorf("%s: native %v %v != wasm %v %v", q, a.Columns, a.Rows, b.Columns, b.Rows)
		}
	}
	for _, db := range []*DB{nativeDB, wasmDB} {
		if _, err := db.Exec("INSERT INTO kv VALUES (2, 7)"); err == nil {
			t.Error("duplicate key accepted")
		}
	}
}

func TestWasmStoreRejectsNonKVSchema(t *testing.T) {
	db := NewDB(WasmFactory)
	for _, ddl := range []string{
		"CREATE TABLE t (a INT PRIMARY KEY)",
		"CREATE TABLE t (a INT, b INT)",
		"CREATE TABLE t (a INT, b INT PRIMARY KEY)",
		"CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)",
	} {
		if _, err := db.Exec(ddl); err == nil {
			t.Errorf("wasm store accepted %q", ddl)
		}
	}
	mustExec(t, db, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	if _, err := db.Exec("INSERT INTO kv VALUES (1, 4294967296)"); err == nil {
		t.Error("wasm store accepted a value past 32 bits")
	}
}

func TestWasmStoreDuplicatePK(t *testing.T) {
	db := NewDB(WasmFactory)
	mustExec(t, db, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO kv VALUES (5, 1)")
	if _, err := db.Exec("INSERT INTO kv VALUES (5, 2)"); err == nil {
		t.Error("duplicate PK accepted by wasm store")
	}
}

func kvStore(t *testing.T) *WasmStore {
	t.Helper()
	store, err := NewWasmStore(Schema{{Name: "k", PrimaryKey: true}, {Name: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestWasmStoreVMExecutes(t *testing.T) {
	// Confirm the data plane really runs in the VM: instruction count
	// grows with operations.
	store := kvStore(t)
	before := store.VM().Executed
	for i := int64(1); i <= 100; i++ {
		if err := store.Insert([]int64{i, i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	mid := store.VM().Executed
	if mid <= before {
		t.Fatal("inserts executed no VM instructions")
	}
	for i := int64(1); i <= 100; i++ {
		row, ok, err := store.LookupPK(i)
		if err != nil || !ok {
			t.Fatalf("lookup %d: %v, %v", i, ok, err)
		}
		if row[1] != i*10 {
			t.Fatalf("lookup %d = %d", i, row[1])
		}
	}
	if store.VM().Executed <= mid {
		t.Fatal("lookups executed no VM instructions")
	}
}

func TestWasmStorePropertyAgainstMap(t *testing.T) {
	// Random put/get sequences agree with a Go map reference; a put on a
	// present key replaces its value, as the KV module's put does.
	store := kvStore(t)
	ref := map[int64]int64{}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := int64(op%199) - 99
			if op%2 == 0 {
				v := int64(op) * 7
				if err := store.Insert([]int64{k, v}); err != nil {
					return false
				}
				ref[k] = v
				continue
			}
			row, ok, err := store.LookupPK(k)
			want, exists := ref[k]
			if err != nil || ok != exists || (ok && row[1] != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
