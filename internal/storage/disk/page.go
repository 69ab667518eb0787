package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// DefaultPageSize is the page size used unless Options overrides it.
const DefaultPageSize = 4096

// Slotted-page layout (all integers little-endian):
//
//	offset 0  u64  pageLSN   — LSN of the last record applied to the page
//	offset 8  u32  crc32     — IEEE CRC of the page with this field zeroed
//	offset 12 u16  slotCount — entries in the slot directory
//	offset 14 u16  dataStart — low-water mark of the record heap
//	offset 16 ...  slot directory, 4 bytes per slot:
//	              u16 recOff (0 = dead slot), u16 recLen
//	...       ...  record heap growing down from the page end
const (
	pageHeaderSize = 16
	slotSize       = 4

	offLSN       = 0
	offCRC       = 8
	offSlotCount = 12
	offDataStart = 14
)

// page wraps one page-sized buffer with slotted-record accessors. It is
// a view, not a copy: mutations write straight into buf.
type page struct {
	buf []byte
}

func newPage(buf []byte) page {
	if len(buf) < pageHeaderSize+slotSize {
		panic(fmt.Sprintf("disk: page buffer too small: %d", len(buf)))
	}
	return page{buf: buf}
}

// init formats buf as an empty page.
func (p page) init() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setDataStart(uint16(len(p.buf)))
}

func (p page) lsn() uint64       { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }
func (p page) setLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], lsn) }

func (p page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.buf[offSlotCount:])) }
func (p page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[offSlotCount:], uint16(n)) }
func (p page) dataStart() int     { return int(binary.LittleEndian.Uint16(p.buf[offDataStart:])) }
func (p page) setDataStart(v uint16) {
	binary.LittleEndian.PutUint16(p.buf[offDataStart:], v)
}

func (p page) slot(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// record returns the live record bytes at slot i, or nil for a dead or
// out-of-range slot. The slice aliases the page buffer.
func (p page) record(i int) []byte {
	if i < 0 || i >= p.slotCount() {
		return nil
	}
	off, length := p.slot(i)
	if off == 0 {
		return nil
	}
	return p.buf[off : off+length]
}

// free reports the bytes available for one more record including its
// slot entry (conservative: ignores reclaimable dead-record space that
// compaction could recover, which insert handles on demand).
func (p page) free() int {
	return p.dataStart() - (pageHeaderSize + p.slotCount()*slotSize)
}

// liveBytes sums the lengths of live records.
func (p page) liveBytes() int {
	total := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, length := p.slot(i); off != 0 {
			total += length
		}
	}
	return total
}

// canFit reports whether a record of recLen fits after compaction,
// assuming it may need a fresh slot entry.
func (p page) canFit(recLen int) bool {
	avail := len(p.buf) - pageHeaderSize - (p.slotCount()+1)*slotSize - p.liveBytes()
	return recLen <= avail
}

// insertCapacity reports the largest record insertable after compaction
// assuming a fresh slot entry — the free-space-map value for this page.
func (p page) insertCapacity() int {
	avail := len(p.buf) - pageHeaderSize - (p.slotCount()+1)*slotSize - p.liveBytes()
	if avail < 0 {
		return 0
	}
	return avail
}

// canUpdate reports whether a replacement record of newLen fits at a
// live slot (in place or after compaction). The write path checks this
// BEFORE logging the update so a logged record is always applicable —
// at apply time and again at replay.
func (p page) canUpdate(slot, newLen int) bool {
	if slot < 0 || slot >= p.slotCount() {
		return false
	}
	off, length := p.slot(slot)
	if off == 0 {
		return false
	}
	if newLen <= length {
		return true
	}
	avail := len(p.buf) - pageHeaderSize - p.slotCount()*slotSize - (p.liveBytes() - length)
	return newLen <= avail
}

// compact rewrites the record heap contiguously at the page end,
// preserving slot numbers (RIDs are physical and must survive).
func (p page) compact() {
	type liveRec struct {
		slot int
		data []byte
	}
	var live []liveRec
	for i := 0; i < p.slotCount(); i++ {
		if rec := p.record(i); rec != nil {
			live = append(live, liveRec{i, append([]byte(nil), rec...)})
		}
	}
	pos := len(p.buf)
	for _, r := range live {
		pos -= len(r.data)
		copy(p.buf[pos:], r.data)
		_, length := p.slot(r.slot)
		p.setSlot(r.slot, pos, length)
	}
	p.setDataStart(uint16(pos))
}

// insert appends rec into the first free slot (a dead slot is reused,
// else a new one), compacting first when fragmented. Returns the slot
// number, or false when the record cannot fit even after compaction.
func (p page) insert(rec []byte) (int, bool) {
	slot := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotSize
	}
	if p.free() < need {
		if !p.canFit(len(rec)) {
			return 0, false
		}
		p.compact()
	}
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	p.place(slot, rec)
	return slot, true
}

// insertAt installs rec at an exact slot number, growing the directory
// (padding the gap with dead slots) as needed. Used by WAL replay,
// where the slot is dictated by the record's RID.
// Fails when the slot is already live or the record cannot fit.
func (p page) insertAt(slot int, rec []byte) error {
	if slot < 0 || slot > 0xffff {
		return fmt.Errorf("disk: slot %d out of range", slot)
	}
	grow := 0
	if slot >= p.slotCount() {
		grow = slot + 1 - p.slotCount()
	} else if off, _ := p.slot(slot); off != 0 {
		return fmt.Errorf("disk: slot %d already occupied", slot)
	}
	need := len(rec) + grow*slotSize
	if p.free() < need {
		avail := len(p.buf) - pageHeaderSize - (p.slotCount()+grow)*slotSize - p.liveBytes()
		if len(rec) > avail {
			return fmt.Errorf("disk: record of %d bytes does not fit in page", len(rec))
		}
		p.compact()
	}
	if grow > 0 {
		old := p.slotCount()
		p.setSlotCount(slot + 1)
		for i := old; i <= slot; i++ {
			p.setSlot(i, 0, 0)
		}
	}
	p.place(slot, rec)
	return nil
}

// nextSlot returns the slot insert would choose: the first dead slot,
// else a fresh one. The write path needs the slot number before the
// insert happens, to log it.
func (p page) nextSlot() int {
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == 0 {
			return i
		}
	}
	return p.slotCount()
}

// place writes rec at the heap low-water mark and points slot at it.
// Caller has ensured the space exists.
func (p page) place(slot int, rec []byte) {
	pos := p.dataStart() - len(rec)
	copy(p.buf[pos:], rec)
	p.setDataStart(uint16(pos))
	p.setSlot(slot, pos, len(rec))
}

// delete kills a slot. Record bytes stay until compaction. Reports
// whether the slot was live.
func (p page) delete(slot int) bool {
	if slot < 0 || slot >= p.slotCount() {
		return false
	}
	if off, _ := p.slot(slot); off == 0 {
		return false
	}
	p.setSlot(slot, 0, 0)
	return true
}

// update replaces the record at a live slot, in place when the new
// record is no longer, else via delete+re-place (same slot).
func (p page) update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("disk: slot %d out of range", slot)
	}
	off, length := p.slot(slot)
	if off == 0 {
		return fmt.Errorf("disk: slot %d is dead", slot)
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	p.setSlot(slot, 0, 0)
	if p.free() < len(rec) {
		if !p.canFit(len(rec)) {
			p.setSlot(slot, off, length) // restore; caller must relocate
			return fmt.Errorf("disk: updated record of %d bytes does not fit in page", len(rec))
		}
		p.compact()
	}
	p.place(slot, rec)
	return nil
}

// liveCount returns the number of live records.
func (p page) liveCount() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off != 0 {
			n++
		}
	}
	return n
}

// checksum computes the page CRC with the checksum field zeroed.
func (p page) checksum() uint32 {
	crc := crc32.Update(0, crc32.IEEETable, p.buf[:offCRC])
	crc = crc32.Update(crc, crc32.IEEETable, zeroCRC[:])
	return crc32.Update(crc, crc32.IEEETable, p.buf[offCRC+4:])
}

// zeroCRC stands in for the checksum field (a local array would escape).
var zeroCRC [4]byte

// seal stamps the stored checksum; call before writing the page out.
func (p page) seal() {
	binary.LittleEndian.PutUint32(p.buf[offCRC:], p.checksum())
}

// verify reports whether the stored checksum matches the content — a
// torn or corrupted page fails this.
func (p page) verify() bool {
	return binary.LittleEndian.Uint32(p.buf[offCRC:]) == p.checksum()
}
