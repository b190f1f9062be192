package storage

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Kind ValueKind
}

// SecondaryDef declares a string-keyed ordered secondary index. The
// Key function must produce a unique string per record; non-unique
// logical keys (such as TPC-C's customer last name) append the primary
// key as a suffix so that prefix scans enumerate all matches in order.
type SecondaryDef struct {
	Name string
	Key  func(pk Key, t Tuple) string
}

// Schema describes a table: its columns, indexing strategy and its
// rank in the application's tree schema (used for validation-order
// rearrangement, §4.5).
type Schema struct {
	Name    string
	Columns []ColumnDef

	// Ordered requests an ordered primary index (B+-tree) in
	// addition to the hash index, enabling range scans with phantom
	// protection.
	Ordered bool

	// ShardShift shards the ordered index by the top (64-ShardShift)
	// key bits; 64 means a single unsharded tree.
	ShardShift uint

	// Secondaries lists ordered secondary indexes.
	Secondaries []SecondaryDef

	// Rank is the table's topological position in the schema tree
	// (smaller = closer to the root; TPC-C: Warehouse=0, District=1,
	// ...). Tables default to rank 0; the engine falls back to pure
	// address order among equal ranks.
	Rank int
}
