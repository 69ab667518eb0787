package disk

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/datum"
)

// Row codec: one tag byte per value, then a type-specific payload.
//
//	0 NULL    —
//	1 BOOL    false
//	2 BOOL    true
//	3 INT     zigzag varint
//	4 FLOAT   8-byte little-endian IEEE 754 bits
//	5 STRING  uvarint length + bytes
//
// User-defined types are rejected: their values round-trip through the
// registered TypeDef formatting hooks, which have no stable inverse the
// storage layer could rely on across restarts. This mirrors the write
// check of FIXED (the heap's fixed-length configuration), which rejects
// values it cannot hold.
const (
	tagNull   = 0
	tagFalse  = 1
	tagTrue   = 2
	tagInt    = 3
	tagFloat  = 4
	tagString = 5
)

// encodeRow appends row's encoding to dst and returns the result.
func encodeRow(dst []byte, row datum.Row) ([]byte, error) {
	for _, v := range row {
		if v.IsNull() {
			dst = append(dst, tagNull)
			continue
		}
		switch v.Type() {
		case datum.TBool:
			if v.Bool() {
				dst = append(dst, tagTrue)
			} else {
				dst = append(dst, tagFalse)
			}
		case datum.TInt:
			dst = append(dst, tagInt)
			dst = binary.AppendVarint(dst, v.Int())
		case datum.TFloat:
			dst = append(dst, tagFloat)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
			dst = append(dst, b[:]...)
		case datum.TString:
			dst = append(dst, tagString)
			s := v.Str()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		default:
			return nil, fmt.Errorf("disk: cannot store value of user-defined type %v (DISK tables support NULL/BOOL/INT/FLOAT/STRING)", v.Type())
		}
	}
	return dst, nil
}

// internCap bounds an interner; past it a new string is copied, as
// without one.
const internCap = 256

// interner hands out one string per distinct byte sequence, so a
// low-cardinality STRING column allocates per distinct value, not per
// row. A nil interner copies every string.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok { // the conversion does not allocate
		return s
	}
	s := string(b)
	if in != nil && len(in) < internCap {
		in[s] = s
	}
	return s
}

// decodeInto parses len(row) values from rec into row, overwriting every
// element; STRING values come from in. On error row holds a partial
// decode the caller must discard.
func decodeInto(row datum.Row, rec []byte, in interner) error {
	pos := 0
	for i := range row {
		if pos >= len(rec) {
			return fmt.Errorf("disk: truncated record (col %d of %d)", i, len(row))
		}
		tag := rec[pos]
		pos++
		switch tag {
		case tagNull:
			row[i] = datum.Null
		case tagFalse:
			row[i] = datum.NewBool(false)
		case tagTrue:
			row[i] = datum.NewBool(true)
		case tagInt:
			v, n := binary.Varint(rec[pos:])
			if n <= 0 {
				return fmt.Errorf("disk: bad varint in record col %d", i)
			}
			pos += n
			row[i] = datum.NewInt(v)
		case tagFloat:
			if pos+8 > len(rec) {
				return fmt.Errorf("disk: truncated float in record col %d", i)
			}
			row[i] = datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rec[pos:])))
			pos += 8
		case tagString:
			n, w := binary.Uvarint(rec[pos:])
			if w <= 0 || pos+w+int(n) > len(rec) {
				return fmt.Errorf("disk: truncated string in record col %d", i)
			}
			pos += w
			row[i] = datum.NewString(in.intern(rec[pos : pos+int(n)]))
			pos += int(n)
		default:
			return fmt.Errorf("disk: unknown value tag %d in record col %d", tag, i)
		}
	}
	if pos != len(rec) {
		return fmt.Errorf("disk: %d trailing bytes after record", len(rec)-pos)
	}
	return nil
}
