package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write-ahead log format. The file opens with an 8-byte magic, then a
// sequence of framed records:
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// Each payload starts with u64 lsn, u8 kind, then kind-specific fields
// (strings are u16 length + bytes). Records are physiological redo:
// they name a table, page and slot, so replay is idempotent under the
// pageLSN check and independent of in-page free-space bookkeeping.
//
// There are no begin or abort records. A statement's changes become
// replayable only when its commit record is on disk; recovery replays
// exactly the record groups whose commit was found, in LSN order, and
// everything else — aborted statements, the in-flight tail — is
// naturally dropped.
//
// Multi-statement transactions add one level of framing on top: a
// statement group may carry a transaction tag (txnID on its commit
// record). Tagged groups replay only when the transaction's own commit
// record (walTxnCommit) is also on disk, so a crash mid-transaction
// drops every statement of the transaction even though their statement
// commits were logged. Untagged groups (txnID 0) are the standalone
// auto-commit case and replay exactly as before.
//
// A tombstone logs a DELETE whose record stays on its page for older
// snapshots until the version GC reaps it; recovery reaps it instead.
//
// A torn tail (short frame, bad length, or CRC mismatch) ends replay at
// the last intact record, which is exactly the no-steal/fsync-on-commit
// contract: anything after the torn point was never acknowledged.

var walMagic = []byte("SBWALv1\n")

// Kind 4 is retired and stays unused: renumbering a kind would misread
// logs already on disk.
const (
	walInsert    = 1 // stmtID, table, page, slot, record bytes
	walDelete    = 2 // stmtID, table, page, slot
	walUpdate    = 3 // stmtID, table, page, slot, record bytes
	walDDL       = 5 // stmtID, sql text
	walCommit    = 6 // stmtID, txnID (0 = standalone statement)
	walFPI       = 7 // table, page, full page image (checkpoint-only; no stmt)
	walTxnCommit = 8 // txnID
	walTombstone = 9 // stmtID, table, page, slot: a DELETE; the record stays
)

// walRecord is one decoded log record.
type walRecord struct {
	lsn    uint64
	kind   byte
	stmtID uint64
	txnID  uint64 // transaction tag on walCommit/walTxnCommit; 0 = none
	table  string
	pageNo uint32
	slot   uint32
	data   []byte // record bytes (insert/update), page image (fpi), sql (ddl)
}

func (r *walRecord) encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.lsn)
	dst = append(dst, r.kind)
	switch r.kind {
	case walCommit:
		dst = binary.LittleEndian.AppendUint64(dst, r.stmtID)
		dst = binary.LittleEndian.AppendUint64(dst, r.txnID)
	case walTxnCommit:
		dst = binary.LittleEndian.AppendUint64(dst, r.txnID)
	case walDDL:
		dst = binary.LittleEndian.AppendUint64(dst, r.stmtID)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.data)))
		dst = append(dst, r.data...)
	case walInsert, walUpdate, walDelete, walTombstone:
		dst = binary.LittleEndian.AppendUint64(dst, r.stmtID)
		dst = appendWalString(dst, r.table)
		dst = binary.LittleEndian.AppendUint32(dst, r.pageNo)
		dst = binary.LittleEndian.AppendUint32(dst, r.slot)
		if r.kind == walInsert || r.kind == walUpdate {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.data)))
			dst = append(dst, r.data...)
		}
	case walFPI:
		dst = appendWalString(dst, r.table)
		dst = binary.LittleEndian.AppendUint32(dst, r.pageNo)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.data)))
		dst = append(dst, r.data...)
	default:
		panic(fmt.Sprintf("disk: encoding unknown wal kind %d", r.kind))
	}
	return dst
}

func appendWalString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

var errWalTruncated = errors.New("disk: truncated wal payload")

// walDecoder reads a payload front to back. The first read past its end
// sets err, and every read from then on returns zero.
type walDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *walDecoder) take(n int) []byte {
	if d.err != nil || n > len(d.buf)-d.pos {
		d.err = errWalTruncated
		return nil
	}
	d.pos += n
	return d.buf[d.pos-n : d.pos]
}

// uint reads an n-byte little-endian unsigned integer.
func (d *walDecoder) uint(n int) uint64 {
	var v uint64
	for i, c := range d.take(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

func (d *walDecoder) str() string   { return string(d.take(int(d.uint(2)))) }
func (d *walDecoder) bytes() []byte { return append([]byte(nil), d.take(int(d.uint(4)))...) }

func decodeWalRecord(payload []byte) (*walRecord, error) {
	d := &walDecoder{buf: payload}
	r := &walRecord{lsn: d.uint(8), kind: byte(d.uint(1))}
	switch r.kind {
	case walCommit:
		r.stmtID, r.txnID = d.uint(8), d.uint(8)
	case walTxnCommit:
		r.txnID = d.uint(8)
	case walDDL:
		r.stmtID, r.data = d.uint(8), d.bytes()
	case walInsert, walUpdate, walDelete, walTombstone:
		r.stmtID, r.table, r.pageNo, r.slot = d.uint(8), d.str(), uint32(d.uint(4)), uint32(d.uint(4))
		if r.kind == walInsert || r.kind == walUpdate {
			r.data = d.bytes()
		}
	case walFPI:
		r.table, r.pageNo, r.data = d.str(), uint32(d.uint(4)), d.bytes()
	default:
		if d.err == nil {
			return nil, fmt.Errorf("disk: unknown wal record kind %d", r.kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(payload) {
		return nil, fmt.Errorf("disk: %d trailing bytes in wal payload", len(payload)-d.pos)
	}
	return r, nil
}

// walWriter appends framed records to the log file and tracks which LSN
// prefix has been fsynced, so commits that lost the group-fsync race
// can skip their own Sync.
type walWriter struct {
	f         File
	off       int64  // append position
	nextLSN   uint64 // LSN the next record receives
	syncedLSN uint64 // highest LSN known durable
	frame     []byte // the frame being written; reused by every append

	// I/O accounting, reported through Store.Stats.
	bytes  int64
	syncs  int64
	frames int64
}

// openWalWriter positions a writer at the end of the intact record
// prefix of f (scanned by walScan); appends after a torn tail overwrite
// the garbage.
func openWalWriter(f File, intactEnd int64, lastLSN uint64) *walWriter {
	return &walWriter{f: f, off: intactEnd, nextLSN: lastLSN + 1, syncedLSN: lastLSN}
}

func newWalFile(f File) (*walWriter, error) {
	if _, err := f.WriteAt(walMagic, 0); err != nil {
		return nil, err
	}
	return &walWriter{f: f, off: int64(len(walMagic)), nextLSN: 1}, nil
}

// append assigns the next LSN, frames and writes the record (no fsync),
// and returns the assigned LSN. The record is encoded straight into the
// writer's one frame buffer behind a reserved header, which WriteAt
// copies: a steady-state append allocates nothing. The caller holds the
// lock that serializes the writer (Store.mu).
func (w *walWriter) append(r *walRecord) (uint64, error) {
	r.lsn = w.nextLSN
	frame := r.encode(append(w.frame[:0], make([]byte, 8)...))
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	w.frame = frame
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return 0, fmt.Errorf("disk: wal append: %w", err)
	}
	w.off += int64(len(frame))
	w.bytes += int64(len(frame))
	w.frames++
	w.nextLSN++
	return r.lsn, nil
}

// sync makes every appended record durable. The syncedLSN check is the
// group-commit short-circuit: a caller whose records were already
// covered by another caller's fsync returns without touching the disk.
func (w *walWriter) sync(upTo uint64) error {
	if w.syncedLSN >= upTo {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("disk: wal fsync: %w", err)
	}
	w.syncedLSN = w.nextLSN - 1
	w.syncs++
	return nil
}

// walScan reads the intact record prefix of a WAL file, returning the
// records, the byte offset just past the last intact frame, and the
// last LSN seen. A missing or short magic means an empty/new log. Any
// framing damage — short header, absurd length, CRC mismatch, short or
// undecodable payload — terminates the scan without error: that is the
// torn tail.
func walScan(f File, size int64) (recs []*walRecord, intactEnd int64, lastLSN uint64, err error) {
	magic := make([]byte, len(walMagic))
	if _, rerr := f.ReadAt(magic, 0); rerr != nil || string(magic) != string(walMagic) {
		return nil, 0, 0, nil
	}
	pos := int64(len(walMagic))
	for {
		var hdr [8]byte
		if _, rerr := f.ReadAt(hdr[:], pos); rerr != nil {
			break
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if payloadLen == 0 || int64(payloadLen) > size-pos-8 {
			break
		}
		payload := make([]byte, payloadLen)
		if n, rerr := f.ReadAt(payload, pos+8); n != len(payload) {
			_ = rerr
			break
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		rec, derr := decodeWalRecord(payload)
		if derr != nil {
			break
		}
		recs = append(recs, rec)
		pos += 8 + int64(payloadLen)
		lastLSN = rec.lsn
	}
	return recs, pos, lastLSN, nil
}
