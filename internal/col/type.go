// Package col implements the column-oriented storage substrate that
// AQUOMAN targets (Sec. IV of the paper). Like MonetDB, a relational table
// is stored as a collection of column files, each holding a sequence of
// fixed-width column values in ascending row order; variable-sized string
// columns are split into a fixed-width offset column plus a string heap
// file. Row identity is the implicit RowID (MonetDB's oid), and foreign-key
// columns may carry a materialized companion column of RowIDs referring to
// the referenced table's rows — the optimization AQUOMAN exploits to skip
// join work (Sec. VI-D).
package col

import (
	"fmt"
	"time"
)

// Value is the universal in-memory carrier for a single column value.
// Integers are themselves; dates are days since the Unix epoch; decimals
// are ×100 fixed point; Dict values are dictionary codes; Text values are
// string-heap offsets; booleans are 0/1; RowIDs are row indices.
type Value = int64

// DecimalScale is the fixed-point scale for Decimal values (two fractional
// digits, as used by every TPC-H money/percentage column).
const DecimalScale = 100

// Type enumerates the storable column types.
type Type uint8

const (
	// Int64 is a 64-bit signed integer (8 bytes on flash).
	Int64 Type = iota
	// Int32 is a 32-bit signed integer (4 bytes on flash).
	Int32
	// Date is a day number since 1970-01-01 (4 bytes on flash).
	Date
	// Decimal is a ×100 fixed-point number (4 bytes on flash; every
	// TPC-H decimal fits 32 bits at this scale).
	Decimal
	// Dict is a dictionary-encoded string: the column file stores 4-byte
	// codes and the dictionary lives in the heap file. Codes are assigned
	// in lexicographic order of the distinct strings, so integer
	// comparisons on codes agree with string comparisons.
	Dict
	// Text is a raw string: the column file stores 4-byte heap offsets
	// and the heap file stores length-prefixed bytes. Text predicates
	// need the regular-expression accelerator.
	Text
	// Bool is a 0/1 byte (the output of the regex accelerator's
	// pre-processing of string columns into one-bit columns).
	Bool
	// RowID is a row index into another table (8 bytes on flash),
	// MonetDB's materialized oid join column.
	RowID
)

// Width returns the on-flash width of one value in bytes.
func (t Type) Width() int {
	switch t {
	case Int64, RowID:
		return 8
	case Int32, Date, Decimal, Dict, Text:
		return 4
	case Bool:
		return 1
	default:
		panic(fmt.Sprintf("col: unknown type %d", t))
	}
}

// IsString reports whether the type carries string content.
func (t Type) IsString() bool { return t == Dict || t == Text }

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Date:
		return "date"
	case Decimal:
		return "decimal"
	case Dict:
		return "dict"
	case Text:
		return "text"
	case Bool:
		return "bool"
	case RowID:
		return "rowid"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// DateValue converts a civil date to its Value encoding.
func DateValue(year, month, day int) Value {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// ParseDate parses "YYYY-MM-DD" into a Value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("col: bad date %q: %v", s, err)
	}
	return t.Unix() / 86400, nil
}

// MustParseDate parses "YYYY-MM-DD" into a Value, panicking on bad input
// (used for literals in query definitions).
func MustParseDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// DateString renders a date Value as "YYYY-MM-DD".
func DateString(v Value) string {
	return time.Unix(v*86400, 0).UTC().Format("2006-01-02")
}

// DateYear returns the calendar year of a date Value (EXTRACT(YEAR ...)).
func DateYear(v Value) int {
	return time.Unix(v*86400, 0).UTC().Year()
}

// DecimalString renders a Decimal value with two fractional digits.
func DecimalString(v Value) string {
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	return fmt.Sprintf("%s%d.%02d", sign, v/DecimalScale, v%DecimalScale)
}

// FormatValue renders a value of the given type for result display. Dict
// and Text values require the column's lookup function; use
// ColumnInfo.Str for those.
func FormatValue(t Type, v Value) string {
	switch t {
	case Date:
		return DateString(v)
	case Decimal:
		return DecimalString(v)
	case Bool:
		if v != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%d", v)
	}
}
