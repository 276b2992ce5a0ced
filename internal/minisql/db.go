// Package minisql is a small embedded SQL engine — the reproduction's
// stand-in for SQLite in the Twine experiment (§IV-C, [17]): "SQLite
// can be fully executed inside an SGX enclave via WebAssembly ... with
// small performance overheads".
//
// It runs the three statement shapes the Twine study issues and refuses
// every other one by name: CREATE TABLE over INT columns with an
// optional primary key, multi-row INSERT ... VALUES, and SELECT of
// columns or * with WHERE <primary key> = <n>. Rows live in a pluggable
// store: one in-process map, or a hash table whose data plane runs
// inside the wasm VM (and, composed with internal/tee, inside a
// simulated enclave). Parsing and planning are identical across stores,
// so measured differences isolate the runtime, exactly like the paper's
// native / WASM / WASM+SGX comparison.
package minisql

import "fmt"

// Column describes one INT table column.
type Column struct {
	Name       string
	PrimaryKey bool
}

// Schema is an ordered column list.
type Schema []Column

// Index returns the position of a named column or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PKIndex returns the primary-key column position or -1.
func (s Schema) PKIndex() int {
	for i, c := range s {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// RowStore is the storage engine behind a table: what the three
// statements need of it, an insert and a primary-key lookup.
type RowStore interface {
	// Insert adds a row; the caller has checked its arity and key.
	Insert(row []int64) error
	// LookupPK returns the row with the given primary-key value (ok=false
	// when absent).
	LookupPK(pk int64) (row []int64, ok bool, err error)
}

// StoreFactory creates a RowStore for a new table.
type StoreFactory func(schema Schema) (RowStore, error)

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     [][]int64
	Affected int
}

// DB is one database instance.
type DB struct {
	tables  map[string]*table
	factory StoreFactory
}

type table struct {
	schema Schema
	store  RowStore
}

// NewDB creates a database using the given store factory (nil = the
// native in-memory store).
func NewDB(factory StoreFactory) *DB {
	if factory == nil {
		factory = nativeFactory
	}
	return &DB{tables: make(map[string]*table), factory: factory}
}

// Exec parses and executes one statement.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	if st.verb == "create" {
		return db.create(st)
	}
	t, ok := db.tables[st.table]
	if !ok {
		return nil, fmt.Errorf("minisql: no table %q", st.table)
	}
	if st.verb == "insert" {
		return t.insert(st.rows)
	}
	return t.sel(st)
}

func (db *DB) create(st *statement) (*Result, error) {
	if _, dup := db.tables[st.table]; dup {
		return nil, fmt.Errorf("minisql: table %q exists", st.table)
	}
	store, err := db.factory(st.schema)
	if err != nil {
		return nil, err
	}
	db.tables[st.table] = &table{schema: st.schema, store: store}
	return &Result{}, nil
}

func (t *table) insert(rows [][]int64) (*Result, error) {
	pk := t.schema.PKIndex()
	for _, row := range rows {
		if len(row) != len(t.schema) {
			return nil, fmt.Errorf("minisql: %d values for %d columns", len(row), len(t.schema))
		}
		if pk >= 0 {
			if _, exists, err := t.store.LookupPK(row[pk]); err != nil {
				return nil, err
			} else if exists {
				return nil, fmt.Errorf("minisql: duplicate primary key %d", row[pk])
			}
		}
		if err := t.store.Insert(row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rows)}, nil
}

// sel answers a SELECT by one primary-key lookup: there are no scans.
func (t *table) sel(st *statement) (*Result, error) {
	if pk := t.schema.PKIndex(); pk < 0 || t.schema[pk].Name != st.key {
		return nil, fmt.Errorf("minisql: WHERE on %q: only the primary key is looked up (no scans)", st.key)
	}
	res := &Result{Columns: st.cols}
	var proj []int
	if st.cols == nil {
		for i, c := range t.schema {
			proj = append(proj, i)
			res.Columns = append(res.Columns, c.Name)
		}
	}
	for _, name := range st.cols {
		idx := t.schema.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("minisql: unknown column %q", name)
		}
		proj = append(proj, idx)
	}
	row, found, err := t.store.LookupPK(st.val)
	if err != nil {
		return nil, err
	}
	if found {
		out := make([]int64, len(proj))
		for i, idx := range proj {
			out[i] = row[idx]
		}
		res.Rows = [][]int64{out}
	}
	return res, nil
}

// nativeStore keeps a table's rows in one map keyed by primary key (by
// insertion index when the table declares none).
type nativeStore struct {
	pk   int
	rows map[int64][]int64
}

func nativeFactory(schema Schema) (RowStore, error) {
	return &nativeStore{pk: schema.PKIndex(), rows: make(map[int64][]int64)}, nil
}

// Insert implements RowStore.
func (s *nativeStore) Insert(row []int64) error {
	key := int64(len(s.rows))
	if s.pk >= 0 {
		key = row[s.pk]
	}
	s.rows[key] = append([]int64(nil), row...)
	return nil
}

// LookupPK implements RowStore.
func (s *nativeStore) LookupPK(pk int64) ([]int64, bool, error) {
	row, ok := s.rows[pk]
	return row, ok, nil
}
