//! Slotted pages for variable-length records.
//!
//! CCAM node records "do not have fixed formats, since the size of the
//! successor-list and predecessor-list varies across nodes" (paper §2.1),
//! so every data page uses the classic slotted layout:
//!
//! ```text
//! +--------+----------------------+---------······---------+-----------+
//! | header | slot directory  →    |      free space        | ← records |
//! +--------+----------------------+---------······---------+-----------+
//! ```
//!
//! * the fixed header stores the slot count and the offset where record
//!   bytes begin (records grow from the page end towards the front),
//! * each 4-byte slot holds `(offset, len)` of one record; a dead slot has
//!   `offset == DEAD`,
//! * deleting a record tombstones its slot; the space is reclaimed lazily
//!   by compaction when an insert would otherwise fail.
//!
//! Slot ids are *stable across compaction* (compaction moves record bytes
//! but never renumbers slots), which lets the secondary index store
//! `(PageId, SlotId)` pairs that survive in-page reorganisation. Slot ids
//! are *not* stable across page reorganisation (splits / reclustering);
//! the access methods update the index in those cases.

use crate::error::{StorageError, StorageResult};

/// Identifier of a record within one page.
pub type SlotId = u16;

/// Fixed page-header bytes (slot_count | cell_start | live_count).
pub const HEADER_LEN: usize = 6;
/// Slot-directory bytes each record costs (offset | len).
pub const SLOT_LEN: usize = 4;
const DEAD: u16 = u16::MAX;

const SLOT_COUNT_OFF: usize = 0;
const CELL_START_OFF: usize = 2;
const LIVE_COUNT_OFF: usize = 4;

#[inline]
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

#[inline]
fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// A read-only view of one page interpreted with the slotted layout.
///
/// Decodes records straight out of borrowed bytes — typically a buffer
/// frame handed out by `BufferPool::with_page` — so a read never copies
/// the page. [`SlottedPage`] answers its own read-only queries through
/// this view.
#[derive(Clone, Copy)]
pub struct SlottedView<'a> {
    buf: &'a [u8],
}

impl<'a> SlottedView<'a> {
    /// Interprets already-formatted bytes as a slotted page.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert!(buf.len() >= HEADER_LEN + SLOT_LEN);
        SlottedView { buf }
    }

    /// Total number of slots, live or dead.
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, SLOT_COUNT_OFF)
    }

    /// Number of live records.
    pub fn live_count(&self) -> u16 {
        get_u16(self.buf, LIVE_COUNT_OFF)
    }

    fn cell_start(&self) -> usize {
        get_u16(self.buf, CELL_START_OFF) as usize
    }

    fn slot(&self, id: SlotId) -> Option<(u16, u16)> {
        if id >= self.slot_count() {
            return None;
        }
        let off = HEADER_LEN + id as usize * SLOT_LEN;
        let rec_off = get_u16(self.buf, off);
        let rec_len = get_u16(self.buf, off + 2);
        if rec_off == DEAD {
            None
        } else {
            Some((rec_off, rec_len))
        }
    }

    /// Returns the bytes of the record in `slot`, or `None` for dead /
    /// out-of-range slots.
    pub fn get(&self, slot: SlotId) -> Option<&'a [u8]> {
        let (off, len) = self.slot(slot)?;
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Free bytes available after compaction (dead-record space included).
    /// This is the number the access methods use when deciding whether a
    /// node record fits a page.
    pub fn free_space(&self) -> usize {
        let mut live_bytes = 0usize;
        let mut live_slots = 0usize;
        for s in 0..self.slot_count() {
            if let Some((_, len)) = self.slot(s) {
                live_bytes += len as usize;
                live_slots += 1;
            }
        }
        // After compaction the directory can be shrunk to live slots only if
        // trailing slots are dead; we report conservatively with the current
        // directory length, except that a fully dead directory compacts away.
        let dir = if live_slots == 0 {
            HEADER_LEN
        } else {
            HEADER_LEN + self.slot_count() as usize * SLOT_LEN
        };
        self.buf.len().saturating_sub(dir + live_bytes)
    }

    /// Sum of live record payload bytes (used-space accounting for the
    /// half-full invariant of CCAM pages).
    pub fn used_bytes(&self) -> usize {
        (0..self.slot_count())
            .filter_map(|s| self.slot(s))
            .map(|(_, len)| len as usize)
            .sum()
    }

    /// Iterates `(slot, record bytes)` over live records, in slot order.
    pub fn iter(self) -> impl Iterator<Item = (SlotId, &'a [u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

/// A mutable view of one page interpreted with the slotted layout.
///
/// `SlottedPage` borrows the raw page bytes (typically handed out by the
/// buffer manager) — it owns no storage itself. Read-only callers use
/// [`SlottedView`] instead, which needs only a shared borrow.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Formats `buf` as an empty slotted page and returns the view.
    pub fn init(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= HEADER_LEN + SLOT_LEN,
            "page too small for slotted layout"
        );
        assert!(
            buf.len() <= u16::MAX as usize,
            "page too large for u16 offsets"
        );
        let len = buf.len() as u16;
        put_u16(buf, SLOT_COUNT_OFF, 0);
        put_u16(buf, CELL_START_OFF, len);
        put_u16(buf, LIVE_COUNT_OFF, 0);
        SlottedPage { buf }
    }

    /// Interprets already-formatted bytes as a slotted page.
    pub fn attach(buf: &'a mut [u8]) -> Self {
        debug_assert!(buf.len() >= HEADER_LEN + SLOT_LEN);
        SlottedPage { buf }
    }

    /// The read-only view of the current contents.
    pub fn view(&self) -> SlottedView<'_> {
        SlottedView { buf: self.buf }
    }

    /// Total number of slots, live or dead.
    pub fn slot_count(&self) -> u16 {
        self.view().slot_count()
    }

    /// Number of live records.
    pub fn live_count(&self) -> u16 {
        self.view().live_count()
    }

    fn cell_start(&self) -> usize {
        self.view().cell_start()
    }

    fn slot(&self, id: SlotId) -> Option<(u16, u16)> {
        self.view().slot(id)
    }

    fn set_slot(&mut self, id: SlotId, rec_off: u16, rec_len: u16) {
        let off = HEADER_LEN + id as usize * SLOT_LEN;
        put_u16(self.buf, off, rec_off);
        put_u16(self.buf, off + 2, rec_len);
    }

    /// Returns the bytes of the record in `slot`, or `None` for dead /
    /// out-of-range slots.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        self.view().get(slot)
    }

    /// Bytes of payload + directory a record of `len` bytes needs when it
    /// cannot reuse a dead slot.
    #[inline]
    fn need_with_new_slot(len: usize) -> usize {
        len + SLOT_LEN
    }

    /// Contiguous free bytes between the slot directory and the cells.
    fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        self.cell_start().saturating_sub(dir_end)
    }

    /// Free bytes available after compaction (dead-record space included).
    /// This is the number the access methods use when deciding whether a
    /// node record fits a page.
    pub fn free_space(&self) -> usize {
        self.view().free_space()
    }

    /// Sum of live record payload bytes (used-space accounting for the
    /// half-full invariant of CCAM pages).
    pub fn used_bytes(&self) -> usize {
        self.view().used_bytes()
    }

    /// Maximum record size a freshly initialised page of `page_size` bytes
    /// can hold.
    pub fn max_record_len(page_size: usize) -> usize {
        page_size - HEADER_LEN - SLOT_LEN
    }

    /// Inserts `record`, compacting first if fragmentation requires it.
    ///
    /// Returns the slot id, or [`StorageError::PageFull`] when even a
    /// compacted page cannot take the record, or
    /// [`StorageError::RecordTooLarge`] when no page of this size ever could.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<SlotId> {
        if record.len() > Self::max_record_len(self.buf.len()) {
            return Err(StorageError::RecordTooLarge {
                record: record.len(),
                max: Self::max_record_len(self.buf.len()),
            });
        }
        // Prefer reusing a dead slot: needs only the payload bytes.
        let dead_slot = (0..self.slot_count()).find(|&s| {
            let off = HEADER_LEN + s as usize * SLOT_LEN;
            get_u16(self.buf, off) == DEAD
        });
        let need = if dead_slot.is_some() {
            record.len()
        } else {
            Self::need_with_new_slot(record.len())
        };
        if self.contiguous_free() < need {
            if self.free_space() < need {
                return Err(StorageError::PageFull {
                    needed: need,
                    available: self.free_space(),
                });
            }
            self.compact();
            if self.contiguous_free() < need {
                return Err(StorageError::PageFull {
                    needed: need,
                    available: self.contiguous_free(),
                });
            }
        }
        let new_start = self.cell_start() - record.len();
        self.buf[new_start..new_start + record.len()].copy_from_slice(record);
        put_u16(self.buf, CELL_START_OFF, new_start as u16);
        let slot = match dead_slot {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                put_u16(self.buf, SLOT_COUNT_OFF, s + 1);
                s
            }
        };
        self.set_slot(slot, new_start as u16, record.len() as u16);
        let live = self.live_count();
        put_u16(self.buf, LIVE_COUNT_OFF, live + 1);
        Ok(slot)
    }

    /// Deletes the record in `slot` (tombstones it).
    pub fn delete(&mut self, slot: SlotId) -> StorageResult<()> {
        if self.slot(slot).is_none() {
            return Err(StorageError::InvalidSlot(slot));
        }
        self.set_slot(slot, DEAD, 0);
        let live = self.live_count();
        put_u16(self.buf, LIVE_COUNT_OFF, live - 1);
        // Shrink the directory if the tail is now dead, so the slot space
        // is reclaimable too.
        let mut n = self.slot_count();
        while n > 0 {
            let off = HEADER_LEN + (n - 1) as usize * SLOT_LEN;
            if get_u16(self.buf, off) == DEAD {
                n -= 1;
            } else {
                break;
            }
        }
        put_u16(self.buf, SLOT_COUNT_OFF, n);
        if n == 0 {
            put_u16(self.buf, CELL_START_OFF, self.buf.len() as u16);
        }
        Ok(())
    }

    /// Replaces the record in `slot` with `record` (may move the payload;
    /// the slot id is preserved).
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> StorageResult<()> {
        let (off, len) = self.slot(slot).ok_or(StorageError::InvalidSlot(slot))?;
        if record.len() <= len as usize {
            // Shrink / same-size in place. Leftover bytes become internal
            // fragmentation reclaimed by the next compaction.
            let off = off as usize;
            self.buf[off..off + record.len()].copy_from_slice(record);
            self.set_slot(slot, off as u16, record.len() as u16);
            return Ok(());
        }
        // Grow: tombstone then re-insert, restoring on failure.
        self.set_slot(slot, DEAD, 0);
        let need = record.len();
        if self.contiguous_free() < need {
            if self.free_space() < need {
                self.set_slot(slot, off, len);
                return Err(StorageError::PageFull {
                    needed: need,
                    available: self.free_space(),
                });
            }
            self.compact();
        }
        let new_start = self.cell_start() - record.len();
        self.buf[new_start..new_start + record.len()].copy_from_slice(record);
        put_u16(self.buf, CELL_START_OFF, new_start as u16);
        self.set_slot(slot, new_start as u16, record.len() as u16);
        Ok(())
    }

    /// Iterates `(slot, record bytes)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        self.view().iter()
    }

    /// Rewrites all live records contiguously at the end of the page,
    /// eliminating fragmentation. Slot ids are unchanged.
    pub fn compact(&mut self) {
        let mut live: Vec<(SlotId, Vec<u8>)> = self.iter().map(|(s, r)| (s, r.to_vec())).collect();
        // Rewrite from the page end; iterate in any order, offsets are
        // recomputed per record.
        let mut cell_start = self.buf.len();
        for (slot, rec) in live.drain(..) {
            cell_start -= rec.len();
            self.buf[cell_start..cell_start + rec.len()].copy_from_slice(&rec);
            self.set_slot(slot, cell_start as u16, rec.len() as u16);
        }
        put_u16(self.buf, CELL_START_OFF, cell_start as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(size: usize) -> Vec<u8> {
        vec![0u8; size]
    }

    #[test]
    fn init_gives_empty_page() {
        let mut buf = page(256);
        let p = SlottedPage::init(&mut buf);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.live_count(), 0);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_space(), 256 - HEADER_LEN);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo-bravo").unwrap();
        assert_eq!(p.get(a).unwrap(), b"alpha");
        assert_eq!(p.get(b).unwrap(), b"bravo-bravo");
        assert_eq!(p.live_count(), 2);
        assert_eq!(p.used_bytes(), 5 + 11);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        assert!(p.get(a).is_none());
        assert_eq!(p.live_count(), 1);
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"three");
    }

    #[test]
    fn delete_invalid_slot_errors() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf);
        assert!(matches!(p.delete(0), Err(StorageError::InvalidSlot(0))));
        let a = p.insert(b"x").unwrap();
        p.delete(a).unwrap();
        assert!(matches!(p.delete(a), Err(StorageError::InvalidSlot(_))));
    }

    #[test]
    fn page_full_reported_with_sizes() {
        let mut buf = page(64);
        let mut p = SlottedPage::init(&mut buf);
        let max = SlottedPage::max_record_len(64);
        p.insert(&vec![7u8; max]).unwrap();
        match p.insert(b"more") {
            Err(StorageError::PageFull { .. }) => {}
            other => panic!("expected PageFull, got {other:?}"),
        }
    }

    #[test]
    fn record_too_large_rejected_up_front() {
        let mut buf = page(64);
        let mut p = SlottedPage::init(&mut buf);
        let too_big = vec![0u8; 64];
        assert!(matches!(
            p.insert(&too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn compaction_recovers_dead_space() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(&[1u8; 40]).unwrap();
        let b = p.insert(&[2u8; 40]).unwrap();
        // Page now nearly full; delete the first and insert something that
        // only fits after compaction.
        p.delete(a).unwrap();
        let c = p.insert(&[3u8; 50]).unwrap();
        assert_eq!(p.get(b).unwrap(), &[2u8; 40][..]);
        assert_eq!(p.get(c).unwrap(), &[3u8; 50][..]);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"hello world").unwrap();
        p.update(a, b"hi").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hi");
        p.update(a, b"a considerably longer record").unwrap();
        assert_eq!(p.get(a).unwrap(), b"a considerably longer record");
    }

    #[test]
    fn update_grow_fails_cleanly_when_full() {
        let mut buf = page(64);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(&[1u8; 20]).unwrap();
        let _b = p.insert(&[2u8; 20]).unwrap();
        let huge = vec![9u8; 60];
        assert!(p.update(a, &huge).is_err());
        // Original record must be intact after the failed grow.
        assert_eq!(p.get(a).unwrap(), &[1u8; 20][..]);
    }

    #[test]
    fn iter_yields_only_live_records() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let got: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn trailing_dead_slots_shrink_directory() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf);
        let _a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(c).unwrap();
        p.delete(b).unwrap();
        assert_eq!(p.slot_count(), 1);
    }

    #[test]
    fn deleting_everything_resets_cell_start() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(&[1u8; 50]).unwrap();
        p.delete(a).unwrap();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), 128 - HEADER_LEN);
        // Full capacity is available again.
        let max = SlottedPage::max_record_len(128);
        p.insert(&vec![4u8; max]).unwrap();
    }

    #[test]
    fn attach_sees_previous_contents() {
        let mut buf = page(128);
        {
            let mut p = SlottedPage::init(&mut buf);
            p.insert(b"persisted").unwrap();
        }
        let p = SlottedPage::attach(&mut buf);
        assert_eq!(p.get(0).unwrap(), b"persisted");
    }
}
