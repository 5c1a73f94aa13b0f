// Package lock implements the transactional lock manager: a
// hierarchical two-phase-locking table with intention modes, FIFO
// queuing, deadlock detection, and the scalability optimizations the
// paper's line of work develops: partitioned lock tables whose table
// intent locks are counts on one atomic word per table (counter.go),
// which every transaction takes and drops without touching the table.
//
// Locking is "by definition centralized" (the paper's phrase): every
// transaction visits the same table structures, so at high thread
// counts the manager itself becomes the bottleneck; this package
// exists both to provide correct 2PL and to let experiments quantify
// that bottleneck and its cures.
package lock

import "fmt"

// Mode is a hierarchical lock mode.
type Mode int

// The standard hierarchical modes.
const (
	// None is the absence of a lock; never stored.
	None Mode = iota
	// IS intends shared locks below this node.
	IS
	// IX intends exclusive locks below this node.
	IX
	// S locks the subtree shared.
	S
	// SIX locks the subtree shared with intent to write below.
	SIX
	// X locks the subtree exclusive.
	X
)

var modeNames = [...]string{"NL", "IS", "IX", "S", "SIX", "X"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// compat[a][b] reports whether a lock held in a is compatible with a
// request for b.
var compat = [6][6]bool{
	None: {true, true, true, true, true, true},
	IS:   {true, true, true, true, true, false},
	IX:   {true, true, true, false, false, false},
	S:    {true, true, false, true, false, false},
	SIX:  {true, true, false, false, false, false},
	X:    {true, false, false, false, false, false},
}

// Compatible reports whether held and req can be granted together.
func Compatible(held, req Mode) bool { return compat[held][req] }

// sup[a][b] is the least mode covering both a and b (the upgrade
// target when a holder of a requests b).
var sup = [6][6]Mode{
	None: {None, IS, IX, S, SIX, X},
	IS:   {IS, IS, IX, S, SIX, X},
	IX:   {IX, IX, IX, SIX, SIX, X},
	S:    {S, S, SIX, S, SIX, X},
	SIX:  {SIX, SIX, SIX, SIX, SIX, X},
	X:    {X, X, X, X, X, X},
}

// Supremum returns the least mode covering both a and b.
func Supremum(a, b Mode) Mode { return sup[a][b] }

// Level places a lock name in the hierarchy.
type Level uint8

// Hierarchy levels, coarse to fine.
const (
	LevelDatabase Level = iota
	LevelTable
	LevelRow
)

var levelNames = [...]string{"db", "table", "row"}

func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Name identifies a lockable resource.
type Name struct {
	Level Level
	Table uint32
	Key   uint64
}

// DatabaseName is the root of the lock hierarchy.
func DatabaseName() Name { return Name{Level: LevelDatabase} }

// TableName names a whole table.
func TableName(table uint32) Name { return Name{Level: LevelTable, Table: table} }

// RowName names one row (key) of a table.
func RowName(table uint32, key uint64) Name {
	return Name{Level: LevelRow, Table: table, Key: key}
}

func (n Name) String() string {
	switch n.Level {
	case LevelDatabase:
		return "db"
	case LevelTable:
		return fmt.Sprintf("table(%d)", n.Table)
	default:
		return fmt.Sprintf("row(%d,%d)", n.Table, n.Key)
	}
}

// hash spreads names over table partitions.
func (n Name) hash() uint64 {
	h := uint64(n.Level)<<56 ^ uint64(n.Table)<<32 ^ n.Key
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}
