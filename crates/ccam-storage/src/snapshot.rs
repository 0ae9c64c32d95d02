//! Multi-version page images for non-blocking snapshot reads.
//!
//! [`PageVersions`] keeps a complete in-memory image of the *committed*
//! page set (the "mirror") plus, per page, a chain of superseded images
//! that are still reachable from pinned generations. A writer publishes
//! one new generation per committed batch ([`PageVersions::publish`]);
//! readers pin the current generation ([`PageVersions::pin`]) and
//! resolve every page read against exactly that generation, no matter
//! what the writer does afterwards. Old images are garbage-collected as
//! soon as no pin can reach them.
//!
//! [`SnapshotStore`] wraps a pinned generation as a read-only
//! [`PageStore`], so the whole read stack (buffer pool, network file,
//! access methods) runs unmodified over a frozen committed state.
//!
//! The mirror serves committed bytes from RAM: bit-rot that hits the
//! backing device *after* an image was captured stays invisible to
//! snapshot readers until a writer republishes (at which point a
//! tolerant re-capture carries the unreadable page into the next
//! generation as [`PageImage::Unreadable`] and degraded reads take
//! over). That trade — reads never touch the device — is what makes the
//! read path stall-free.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::store::PageStore;

/// One committed image of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageImage {
    /// The page's bytes as of some committed generation.
    Bytes(Box<[u8]>),
    /// The page was live but unreadable (checksum failure) when the
    /// generation was captured; snapshot reads of it surface
    /// [`StorageError::ChecksumMismatch`] so the degraded-read path
    /// engages exactly as it would against the device.
    Unreadable,
}

/// A superseded image: the content of a page for every generation
/// `<= valid_through` (back to the previous entry in its chain).
/// `image == None` means the page was *not live* at those generations.
struct OldVersion {
    valid_through: u64,
    image: Option<Arc<PageImage>>,
}

struct VersionState {
    /// Committed image of every live page at the current generation.
    mirror: HashMap<u32, Arc<PageImage>>,
    /// Per-page chains of superseded images, ascending `valid_through`.
    versions: HashMap<u32, Vec<OldVersion>>,
    /// Pinned generation -> pin count.
    pins: BTreeMap<u64, usize>,
}

/// Multi-version committed page images (see module docs).
pub struct PageVersions {
    page_size: usize,
    committed_gen: AtomicU64,
    state: Mutex<VersionState>,
}

impl std::fmt::Debug for PageVersions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageVersions")
            .field("page_size", &self.page_size)
            .field("committed_gen", &self.committed_gen.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

/// One page's change inside a published batch.
pub enum PageChange {
    /// The page now holds these bytes.
    Written(Box<[u8]>),
    /// The page is live but its committed bytes could not be read
    /// (tolerated checksum failure during capture).
    Unreadable,
    /// The page was freed.
    Freed,
}

impl PageVersions {
    /// An empty version set at generation 0 (no live pages).
    pub fn new(page_size: usize) -> Arc<PageVersions> {
        Arc::new(PageVersions {
            page_size,
            committed_gen: AtomicU64::new(0),
            state: Mutex::new(VersionState {
                mirror: HashMap::new(),
                versions: HashMap::new(),
                pins: BTreeMap::new(),
            }),
        })
    }

    /// Builds a version set whose generation-0 mirror is `images`
    /// (page index -> committed image). Used both to seed a `WalStore`'s
    /// mirror from a tolerant scan and to freeze a one-shot deep copy of
    /// a store that has no versioning of its own.
    pub fn from_images(
        page_size: usize,
        images: impl IntoIterator<Item = (u32, PageImage)>,
    ) -> Arc<PageVersions> {
        let v = PageVersions::new(page_size);
        {
            let mut s = v.state.lock();
            for (page, image) in images {
                s.mirror.insert(page, Arc::new(image));
            }
        }
        v
    }

    /// Builds a generation-0 mirror from one tolerant scan of `live`:
    /// `read` fills a page's bytes, and a page failing its checksum is
    /// kept as [`PageImage::Unreadable`] so snapshot reads of it degrade
    /// like device reads would. Any other read error aborts the scan.
    pub fn scan(
        page_size: usize,
        live: impl IntoIterator<Item = PageId>,
        mut read: impl FnMut(PageId, &mut [u8]) -> StorageResult<()>,
    ) -> StorageResult<Arc<PageVersions>> {
        let mut images = Vec::new();
        let mut buf = vec![0u8; page_size];
        for page in live {
            let image = match read(page, &mut buf) {
                Ok(()) => PageImage::Bytes(buf.clone().into_boxed_slice()),
                Err(StorageError::ChecksumMismatch { .. }) => PageImage::Unreadable,
                Err(e) => return Err(e),
            };
            images.push((page.0, image));
        }
        Ok(PageVersions::from_images(page_size, images))
    }

    /// Page size of every image.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The current committed generation.
    pub fn committed_gen(&self) -> u64 {
        self.committed_gen.load(Ordering::Acquire)
    }

    /// Pins the current committed generation. Reads through the guard
    /// resolve against exactly this generation until it drops.
    pub fn pin(self: &Arc<Self>) -> PinGuard {
        let mut s = self.state.lock();
        let gen = self.committed_gen.load(Ordering::Acquire);
        *s.pins.entry(gen).or_insert(0) += 1;
        PinGuard {
            versions: Arc::clone(self),
            gen,
        }
    }

    /// Atomically publishes one committed batch as the next generation:
    /// superseded images move onto the per-page version chains (so pinned
    /// readers keep resolving them), the mirror advances, and images no
    /// pin can reach are dropped. Returns the new committed generation.
    pub fn publish(&self, changes: impl IntoIterator<Item = (u32, PageChange)>) -> u64 {
        let mut s = self.state.lock();
        let gen = self.committed_gen.load(Ordering::Acquire);
        for (page, change) in changes {
            let old = s.mirror.get(&page).cloned();
            s.versions.entry(page).or_default().push(OldVersion {
                valid_through: gen,
                image: old,
            });
            match change {
                PageChange::Written(bytes) => {
                    s.mirror.insert(page, Arc::new(PageImage::Bytes(bytes)));
                }
                PageChange::Unreadable => {
                    s.mirror.insert(page, Arc::new(PageImage::Unreadable));
                }
                PageChange::Freed => {
                    s.mirror.remove(&page);
                }
            }
        }
        let new_gen = gen + 1;
        self.committed_gen.store(new_gen, Ordering::Release);
        Self::collect(&mut s, new_gen);
        new_gen
    }

    /// Resolves the image of `page` at generation `gen`, or `None` when
    /// the page was not live then.
    fn image_at(&self, gen: u64, page: u32) -> Option<Arc<PageImage>> {
        let s = self.state.lock();
        if let Some(chain) = s.versions.get(&page) {
            // Chains ascend in valid_through; the first entry covering
            // `gen` holds the image that was current then.
            for old in chain {
                if old.valid_through >= gen {
                    return old.image.clone();
                }
            }
        }
        s.mirror.get(&page).cloned()
    }

    /// The live page ids at generation `gen`, ascending.
    fn live_at(&self, gen: u64) -> Vec<u32> {
        let s = self.state.lock();
        let mut out: Vec<u32> = s.mirror.keys().chain(s.versions.keys()).copied().collect();
        out.sort_unstable();
        out.dedup();
        drop(s);
        out.into_iter()
            .filter(|&p| self.image_at(gen, p).is_some())
            .collect()
    }

    fn unpin(&self, gen: u64) {
        let mut s = self.state.lock();
        match s.pins.get_mut(&gen) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                s.pins.remove(&gen);
            }
            None => debug_assert!(false, "unpin of generation {gen} with no pin"),
        }
        let committed = self.committed_gen.load(Ordering::Acquire);
        Self::collect(&mut s, committed);
    }

    /// Drops version-chain entries no pin can reach. An entry covers
    /// generations `<= valid_through`, so it is dead once every pin (and
    /// the committed generation itself) lies strictly above that.
    fn collect(s: &mut VersionState, committed: u64) {
        let min_reachable = s.pins.keys().next().copied().unwrap_or(committed);
        s.versions.retain(|_, chain| {
            chain.retain(|old| old.valid_through >= min_reachable);
            !chain.is_empty()
        });
    }

    /// Number of superseded images still retained (test/metrics hook).
    pub fn retained_versions(&self) -> usize {
        self.state.lock().versions.values().map(Vec::len).sum()
    }

    /// Oldest generation any live pin still references (`None` when
    /// nothing is pinned). WAL truncation is gated on this: a pinned
    /// stale generation maps to the log position its readers may still
    /// need.
    pub fn min_pinned_gen(&self) -> Option<u64> {
        self.state.lock().pins.keys().next().copied()
    }
}

/// Pins one generation of a [`PageVersions`]; dropping unpins it and
/// lets unreachable images be collected.
pub struct PinGuard {
    versions: Arc<PageVersions>,
    gen: u64,
}

impl PinGuard {
    /// The pinned generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.versions.unpin(self.gen);
    }
}

/// A read-only [`PageStore`] over one pinned generation. Every read
/// resolves in memory against the committed images; mutations and
/// `sync` fail with [`StorageError::ReadOnlySnapshot`].
pub struct SnapshotStore {
    versions: Arc<PageVersions>,
    pin: PinGuard,
    /// Live pages at the pinned generation, computed once at pin time
    /// (the set is immutable while the pin is held).
    live: Vec<u32>,
    num_pages: u32,
}

impl SnapshotStore {
    /// Pins the current committed generation of `versions`.
    pub fn pin(versions: &Arc<PageVersions>) -> SnapshotStore {
        let pin = versions.pin();
        let live = versions.live_at(pin.generation());
        let num_pages = live.last().map(|p| p + 1).unwrap_or(0);
        SnapshotStore {
            versions: Arc::clone(versions),
            pin,
            live,
            num_pages,
        }
    }

    /// The generation this store reads.
    pub fn generation(&self) -> u64 {
        self.pin.generation()
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("generation", &self.pin.generation())
            .field("live", &self.live.len())
            .finish_non_exhaustive()
    }
}

fn read_only() -> StorageError {
    StorageError::ReadOnlySnapshot
}

impl PageStore for SnapshotStore {
    fn page_size(&self) -> usize {
        self.versions.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        Err(read_only())
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        match self.versions.image_at(self.pin.generation(), id.index()) {
            Some(image) => match &*image {
                PageImage::Bytes(bytes) => {
                    if buf.len() != bytes.len() {
                        return Err(StorageError::BadPageSize(buf.len()));
                    }
                    buf.copy_from_slice(bytes);
                    Ok(())
                }
                // Surfaced with the same error shape the device would
                // produce, so quarantine/degraded handling is identical.
                PageImage::Unreadable => Err(StorageError::ChecksumMismatch {
                    page: id,
                    stored: 0,
                    computed: 0,
                }),
            },
            None => Err(StorageError::InvalidPage(id)),
        }
    }

    fn write(&mut self, _id: PageId, _buf: &[u8]) -> StorageResult<()> {
        Err(read_only())
    }

    fn free(&mut self, _id: PageId) -> StorageResult<()> {
        Err(read_only())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.live.binary_search(&id.index()).is_ok()
    }

    fn sync(&mut self) -> StorageResult<()> {
        // A no-op rather than an error: the read stack commits through
        // shared plumbing (e.g. pool flushes with no dirty frames), and
        // "persist nothing" is exactly right for a frozen image.
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.live.iter().map(|&p| PageId(p)).collect()
    }

    fn ensure_allocated(&mut self, _id: PageId) -> StorageResult<()> {
        Err(read_only())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(fill: u8, n: usize) -> Box<[u8]> {
        vec![fill; n].into_boxed_slice()
    }

    fn read_page(s: &SnapshotStore, p: u32) -> StorageResult<Vec<u8>> {
        let mut buf = vec![0u8; s.page_size()];
        s.read(PageId(p), &mut buf)?;
        Ok(buf)
    }

    #[test]
    fn pinned_generation_is_immune_to_later_publishes() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let snap = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        v.publish([
            (0, PageChange::Freed),
            (1, PageChange::Written(bytes(3, 4))),
        ]);
        assert_eq!(read_page(&snap, 0).unwrap(), vec![1; 4]);
        assert!(matches!(
            read_page(&snap, 1),
            Err(StorageError::InvalidPage(_))
        ));
        let now = SnapshotStore::pin(&v);
        assert!(matches!(
            read_page(&now, 0),
            Err(StorageError::InvalidPage(_))
        ));
        assert_eq!(read_page(&now, 1).unwrap(), vec![3; 4]);
    }

    #[test]
    fn scan_keeps_checksum_failures_as_unreadable_and_aborts_on_other_errors() {
        let read = |p: PageId, buf: &mut [u8]| match p.0 {
            1 => Err(StorageError::ChecksumMismatch {
                page: p,
                stored: 0,
                computed: 1,
            }),
            2 => Err(StorageError::InvalidPage(p)),
            n => {
                buf.fill(n as u8 + 7);
                Ok(())
            }
        };
        let v = PageVersions::scan(4, [PageId(0), PageId(1)], read).unwrap();
        let snap = SnapshotStore::pin(&v);
        assert_eq!(read_page(&snap, 0).unwrap(), vec![7; 4]);
        assert!(matches!(
            read_page(&snap, 1),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            PageVersions::scan(4, [PageId(0), PageId(2)], read),
            Err(StorageError::InvalidPage(_))
        ));
    }

    #[test]
    fn unpin_collects_unreachable_images() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let snap = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        v.publish([(0, PageChange::Written(bytes(3, 4)))]);
        assert!(v.retained_versions() >= 2);
        drop(snap);
        assert_eq!(v.retained_versions(), 0);
    }

    #[test]
    fn two_pins_resolve_their_own_generations() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let a = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        let b = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(3, 4)))]);
        assert_eq!(read_page(&a, 0).unwrap(), vec![1; 4]);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; 4]);
        drop(a);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; 4]);
    }

    #[test]
    fn unreadable_image_reads_as_checksum_mismatch() {
        let v = PageVersions::from_images(4, [(0, PageImage::Unreadable)]);
        let snap = SnapshotStore::pin(&v);
        assert!(matches!(
            read_page(&snap, 0),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(snap.is_live(PageId(0)));
        assert_eq!(snap.live_pages(), vec![PageId(0)]);
    }

    #[test]
    fn snapshot_store_refuses_mutation() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let mut snap = SnapshotStore::pin(&v);
        assert!(matches!(
            snap.allocate(),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.write(PageId(0), &[0; 4]),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.free(PageId(0)),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(snap.sync().is_ok());
    }

    #[test]
    fn freed_then_reused_page_versions_correctly() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let a = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Freed)]);
        let b = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(9, 4)))]);
        let c = SnapshotStore::pin(&v);
        assert_eq!(read_page(&a, 0).unwrap(), vec![1; 4]);
        assert!(read_page(&b, 0).is_err());
        assert!(!b.is_live(PageId(0)));
        assert_eq!(read_page(&c, 0).unwrap(), vec![9; 4]);
    }
}
