//! The 4-level EPT radix tree, stored in simulated physical memory.

use crate::entry::{EptEntry, EptPerms, IntegrityMode, PageSize};
use crate::{LEVELS, LEVEL_BITS, TABLE_BYTES};
use telemetry::Counter;

/// Entries per table page.
const ENTRIES: u64 = TABLE_BYTES / 8;

/// Entries per 64-byte line: the span of one [`PhysMem::read_clean`] or
/// [`PhysMem::write_words`].
const LINE_WORDS: u64 = 8;

/// Backing physical memory for EPT table pages.
///
/// Implemented over the simulated DRAM by the hypervisor crate, and by a
/// plain map for unit tests. Reads/writes are 8-byte entry accesses.
pub trait PhysMem {
    /// Reads the 64-bit word at physical address `phys` (8-byte aligned).
    fn read_u64(&mut self, phys: u64) -> u64;
    /// Writes the 64-bit word at physical address `phys` (8-byte aligned).
    fn write_u64(&mut self, phys: u64, value: u64);
    /// Zeroes the table page at `table` (`TABLE_BYTES`-aligned).
    ///
    /// The default writes its 512 entries one word at a time; a memory
    /// with a cheaper bulk write may override it, provided it leaves the
    /// memory exactly as those word writes would.
    fn zero_table(&mut self, table: u64) {
        for i in 0..(TABLE_BYTES / 8) {
            self.write_u64(table + i * 8, 0);
        }
    }
    /// Fills `out` with the consecutive words from `phys`, all in one
    /// 64-byte line, if every one of them reads clean: reading it with
    /// [`Self::read_u64`] has no side effect (no ECC event is counted) and
    /// returns the same value until it is written. Returns `false`, and
    /// reads nothing, otherwise.
    ///
    /// The default always returns `false`, so callers read word by word.
    fn read_clean(&mut self, phys: u64, out: &mut [u64]) -> bool {
        let _ = (phys, out);
        false
    }
    /// Writes `words` to consecutive words from `phys`, all in one 64-byte
    /// line, leaving the memory exactly as one [`Self::write_u64`] per word
    /// would.
    fn write_words(&mut self, phys: u64, words: &[u64]) {
        for (i, &word) in words.iter().enumerate() {
            self.write_u64(phys + i as u64 * 8, word);
        }
    }
}

/// Allocator for EPT table pages.
///
/// Siloz implements this with its GFP_EPT path, placing pages into the
/// guard-protected EPT row group (§5.4); the baseline implements it with
/// ordinary host allocations.
pub trait EptAllocator {
    /// Allocates one 4 KiB page for an EPT table; returns its HPA.
    ///
    /// The page's contents are unspecified: a pool may hand back a page a
    /// destroyed EPT used, entries and all (Siloz's GFP_EPT pool is LIFO).
    /// [`Ept`] zeroes every page it draws with [`PhysMem::zero_table`]
    /// before linking it in. Skipping that is unsound: a stale entry would
    /// translate a GPA this EPT never mapped to a frame it does not own.
    fn alloc_table_page(&mut self) -> Result<u64, EptError>;
}

/// EPT operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptError {
    /// No memory for a table page.
    OutOfMemory,
    /// Translation of an unmapped GPA.
    NotMapped {
        /// The offending guest physical address.
        gpa: u64,
    },
    /// GPA/HPA not aligned to the mapping size.
    Misaligned,
    /// The GPA range is already mapped (possibly at a different size).
    AlreadyMapped {
        /// The offending guest physical address.
        gpa: u64,
    },
    /// An entry failed its integrity check during a walk (§5.4: corruption
    /// is detected on use; the VM cannot exploit the corrupted mapping).
    IntegrityViolation {
        /// Paging level of the corrupt entry (4 = root).
        level: u32,
        /// HPA of the corrupt entry.
        entry_addr: u64,
    },
}

impl core::fmt::Display for EptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EptError::OutOfMemory => write!(f, "out of EPT table memory"),
            EptError::NotMapped { gpa } => write!(f, "GPA {gpa:#x} not mapped"),
            EptError::Misaligned => write!(f, "misaligned mapping request"),
            EptError::AlreadyMapped { gpa } => write!(f, "GPA {gpa:#x} already mapped"),
            EptError::IntegrityViolation { level, entry_addr } => {
                write!(
                    f,
                    "EPT integrity violation at level {level}, entry {entry_addr:#x}"
                )
            }
        }
    }
}

impl std::error::Error for EptError {}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated host physical address.
    pub hpa: u64,
    /// Effective permissions.
    pub perms: EptPerms,
    /// Mapping size that served the translation.
    pub size: PageSize,
}

/// One VM's extended page table.
///
/// # Examples
///
/// ```
/// use ept::{Ept, EptAllocator, EptError, EptPerms, IntegrityMode, PageSize, PhysMem};
/// use std::collections::HashMap;
///
/// struct Mem(HashMap<u64, u64>);
/// impl PhysMem for Mem {
///     fn read_u64(&mut self, p: u64) -> u64 { *self.0.get(&p).unwrap_or(&0) }
///     fn write_u64(&mut self, p: u64, v: u64) { self.0.insert(p, v); }
/// }
/// struct Bump(u64);
/// impl EptAllocator for Bump {
///     fn alloc_table_page(&mut self) -> Result<u64, EptError> {
///         let p = self.0; self.0 += 4096; Ok(p)
///     }
/// }
///
/// let (mut mem, mut alloc) = (Mem(HashMap::new()), Bump(0x10_0000));
/// let mut ept = Ept::new(&mut mem, &mut alloc, IntegrityMode::Checked, 42).unwrap();
/// ept.map(&mut mem, &mut alloc, 0x20_0000, 0x4000_0000, PageSize::Size2M, EptPerms::RWX)
///     .unwrap();
/// let t = ept.translate(&mut mem, 0x20_1234).unwrap();
/// assert_eq!(t.hpa, 0x4000_1234);
/// ```
#[derive(Debug)]
pub struct Ept {
    root: u64,
    mode: IntegrityMode,
    salt: u64,
    /// HPAs of every table page in this EPT (root first). Siloz checks
    /// these stay inside the protected EPT row group.
    table_pages: Vec<u64>,
    mapped_leaves: u64,
    /// Translation walks performed (a lock-free counter: `translate` takes
    /// `&self`).
    walks: Counter,
    /// Walks or updates refused because an entry failed its integrity
    /// check — each one is a contained §5.4 corruption.
    integrity_denials: Counter,
}

impl Ept {
    /// Creates an empty EPT, allocating its root table.
    pub fn new(
        mem: &mut dyn PhysMem,
        alloc: &mut dyn EptAllocator,
        mode: IntegrityMode,
        salt: u64,
    ) -> Result<Self, EptError> {
        let root = alloc.alloc_table_page()?;
        mem.zero_table(root);
        Ok(Self {
            root,
            mode,
            salt,
            table_pages: vec![root],
            mapped_leaves: 0,
            walks: Counter::default(),
            integrity_denials: Counter::default(),
        })
    }

    /// HPA of the root table page.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// HPAs of all table pages (root first).
    #[must_use]
    pub fn table_pages(&self) -> &[u64] {
        &self.table_pages
    }

    /// Number of leaf mappings installed.
    #[must_use]
    pub fn mapped_leaves(&self) -> u64 {
        self.mapped_leaves
    }

    /// Translation walks performed so far.
    #[must_use]
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Operations refused on an entry integrity failure so far.
    #[must_use]
    pub fn integrity_denials(&self) -> u64 {
        self.integrity_denials.get()
    }

    /// Adds this table's totals into `reg`: walk and integrity-denial
    /// counts, table-page footprint, and installed leaf mappings.
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        reg.counter("walks").add(self.walks());
        reg.counter("integrity_denials")
            .add(self.integrity_denials());
        reg.counter("table_pages")
            .add(self.table_pages.len() as u64);
        reg.counter("mapped_leaves").add(self.mapped_leaves);
    }

    /// Index of `gpa` within the table at 1-based `level`.
    fn index(gpa: u64, level: u32) -> u64 {
        (gpa >> (12 + (level - 1) * LEVEL_BITS)) & ((1 << LEVEL_BITS) - 1)
    }

    /// Maps `[gpa, gpa + size)` to `[hpa, hpa + size)` with `perms`.
    pub fn map(
        &mut self,
        mem: &mut dyn PhysMem,
        alloc: &mut dyn EptAllocator,
        gpa: u64,
        hpa: u64,
        size: PageSize,
        perms: EptPerms,
    ) -> Result<(), EptError> {
        self.map_run(mem, alloc, gpa, size, &[hpa], perms)
            .map_err(|(_, e)| e)
    }

    /// Maps page `i` of a run, `[gpa + i·size, gpa + (i+1)·size)`, to
    /// `[hpas[i], hpas[i] + size)` with `perms`, for every `i`.
    ///
    /// Memory effects, allocator calls and counters are exactly those of
    /// one [`Self::map`] per page in order, stopping at the first failure;
    /// on failure it returns that page's index (the number of pages mapped)
    /// with its error. The run is mapped a leaf table at a time: the pages
    /// that share one are walked to it once, and their entries are read and
    /// written a 64-byte line at a time. Whatever a per-page map would
    /// re-read with a side effect is re-read: if an upper entry does not
    /// read clean ([`PhysMem::read_clean`]), or a corrupted entry loops the
    /// walk back to a table it passed, the pages go one walk each.
    pub fn map_run(
        &mut self,
        mem: &mut dyn PhysMem,
        alloc: &mut dyn EptAllocator,
        gpa: u64,
        size: PageSize,
        hpas: &[u64],
        perms: EptPerms,
    ) -> Result<(), (usize, EptError)> {
        let (bytes, leaf_level) = (size.bytes(), size.leaf_level());
        let aligned = |a: u64| a.is_multiple_of(bytes);
        let mut i = 0;
        while i < hpas.len() {
            let page_gpa = gpa + i as u64 * bytes;
            if !aligned(page_gpa) || !aligned(hpas[i]) {
                return Err((i, EptError::Misaligned));
            }
            // The pages sharing this one's leaf table, cut before the first
            // misaligned HPA (whose own map fails before walking).
            let first = Self::index(page_gpa, leaf_level);
            let room = (ENTRIES - first) as usize;
            let chunk = (hpas[i..].iter().take(room).skip(1))
                .position(|&h| !aligned(h))
                .map_or(room.min(hpas.len() - i), |p| p + 1);
            let (table, shared) =
                (self.walk(mem, alloc, page_gpa, leaf_level, chunk > 1)).map_err(|e| (i, e))?;
            let (start, end) = (i, if shared { i + chunk } else { i + 1 });
            let mut words = [0u64; LINE_WORDS as usize];
            while i < end {
                let index = first + (i - start) as u64;
                let n = (end - i).min((LINE_WORDS - index % LINE_WORDS) as usize);
                let addr = table + index * 8;
                // A per-page map reads each leaf word once, then writes it
                // if it is free: read the line's words up to the first
                // present one, write the free ones before it in one go.
                let present = if mem.read_clean(addr, &mut words[..n]) {
                    words[..n].iter().position(|&w| EptEntry(w).is_present())
                } else {
                    (0..n).position(|j| EptEntry(mem.read_u64(addr + j as u64 * 8)).is_present())
                };
                let free = present.unwrap_or(n);
                if free > 0 {
                    for (w, &hpa) in words[..free].iter_mut().zip(&hpas[i..]) {
                        *w = EptEntry::leaf(hpa, perms, self.mode, self.salt).0;
                    }
                    mem.write_words(addr, &words[..free]);
                    self.mapped_leaves += free as u64;
                }
                i += free;
                if present.is_some() {
                    let gpa = gpa + i as u64 * bytes;
                    return Err((i, EptError::AlreadyMapped { gpa }));
                }
            }
        }
        Ok(())
    }

    /// Walks from the root to `gpa`'s table at `leaf_level`, drawing and
    /// zeroing each missing table on the way, exactly as one page's
    /// [`Self::map`] does; returns the leaf table.
    ///
    /// With `share`, also returns whether the next pages under the same
    /// leaf table may skip their own walks. They may when repeating this
    /// walk would take the same path with no side effect: every upper entry
    /// it read present reads clean (an entry it wrote does), and its tables
    /// are distinct pages. A corrupted entry pointing back at a table on the
    /// path breaks the second: a table drawn or written later in the walk
    /// would then change words the walk already read.
    fn walk(
        &mut self,
        mem: &mut dyn PhysMem,
        alloc: &mut dyn EptAllocator,
        gpa: u64,
        leaf_level: u32,
        share: bool,
    ) -> Result<(u64, bool), EptError> {
        let mut path = [0u64; LEVELS as usize];
        let mut depth = 0;
        let mut shared = share;
        let mut table = self.root;
        let mut level = LEVELS;
        while level > leaf_level {
            path[depth] = table;
            depth += 1;
            let entry_addr = table + Self::index(gpa, level) * 8;
            let entry = EptEntry(mem.read_u64(entry_addr));
            if entry.is_present() {
                if entry.is_leaf() {
                    return Err(EptError::AlreadyMapped { gpa });
                }
                if !entry.integrity_ok(self.mode, self.salt) {
                    self.integrity_denials.inc();
                    return Err(EptError::IntegrityViolation { level, entry_addr });
                }
                shared = shared && mem.read_clean(entry_addr, &mut [0]);
                table = entry.hpa();
            } else {
                let new_table = alloc.alloc_table_page()?;
                mem.zero_table(new_table);
                self.table_pages.push(new_table);
                mem.write_u64(
                    entry_addr,
                    EptEntry::table(new_table, self.mode, self.salt).0,
                );
                table = new_table;
            }
            level -= 1;
        }
        path[depth] = table;
        let path = &path[..=depth];
        shared = shared && (1..path.len()).all(|d| !path[..d].contains(&path[d]));
        Ok((table, shared))
    }

    /// Translates a GPA, verifying integrity at every level.
    pub fn translate(&self, mem: &mut dyn PhysMem, gpa: u64) -> Result<Translation, EptError> {
        self.walks.inc();
        let mut table = self.root;
        let mut level = LEVELS;
        loop {
            let entry_addr = table + Self::index(gpa, level) * 8;
            let entry = EptEntry(mem.read_u64(entry_addr));
            if !entry.is_present() {
                return Err(EptError::NotMapped { gpa });
            }
            if !entry.integrity_ok(self.mode, self.salt) {
                self.integrity_denials.inc();
                return Err(EptError::IntegrityViolation { level, entry_addr });
            }
            if entry.is_leaf() {
                let size = match level {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => return Err(EptError::NotMapped { gpa }),
                };
                let offset = gpa & (size.bytes() - 1);
                return Ok(Translation {
                    hpa: entry.hpa() + offset,
                    perms: entry.perms(),
                    size,
                });
            }
            if level == 1 {
                return Err(EptError::NotMapped { gpa });
            }
            table = entry.hpa();
            level -= 1;
        }
    }

    /// Removes the leaf mapping covering `gpa` (tables are not reclaimed,
    /// as in most hypervisors' simple paths).
    pub fn unmap(&mut self, mem: &mut dyn PhysMem, gpa: u64) -> Result<(), EptError> {
        let mut table = self.root;
        let mut level = LEVELS;
        loop {
            let entry_addr = table + Self::index(gpa, level) * 8;
            let entry = EptEntry(mem.read_u64(entry_addr));
            if !entry.is_present() {
                return Err(EptError::NotMapped { gpa });
            }
            if !entry.integrity_ok(self.mode, self.salt) {
                self.integrity_denials.inc();
                return Err(EptError::IntegrityViolation { level, entry_addr });
            }
            if entry.is_leaf() {
                mem.write_u64(entry_addr, 0);
                self.mapped_leaves -= 1;
                return Ok(());
            }
            if level == 1 {
                return Err(EptError::NotMapped { gpa });
            }
            table = entry.hpa();
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    struct Mem(HashMap<u64, u64>);
    impl PhysMem for Mem {
        fn read_u64(&mut self, p: u64) -> u64 {
            *self.0.get(&p).unwrap_or(&0)
        }
        fn write_u64(&mut self, p: u64, v: u64) {
            self.0.insert(p, v);
        }
    }

    struct Bump(u64);
    impl EptAllocator for Bump {
        fn alloc_table_page(&mut self) -> Result<u64, EptError> {
            let p = self.0;
            self.0 += TABLE_BYTES;
            Ok(p)
        }
    }

    fn setup(mode: IntegrityMode) -> (Mem, Bump, Ept) {
        let mut mem = Mem(HashMap::new());
        let mut alloc = Bump(0x100_0000);
        let ept = Ept::new(&mut mem, &mut alloc, mode, 0x5a17).unwrap();
        (mem, alloc, ept)
    }

    #[test]
    fn map_translate_all_sizes() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::Checked);
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xAA000,
            PageSize::Size4K,
            EptPerms::RO,
        )
        .unwrap();
        ept.map(
            &mut mem,
            &mut alloc,
            0x20_0000,
            0x4000_0000,
            PageSize::Size2M,
            EptPerms::RW,
        )
        .unwrap();
        ept.map(
            &mut mem,
            &mut alloc,
            1 << 30,
            3 << 30,
            PageSize::Size1G,
            EptPerms::RWX,
        )
        .unwrap();

        let t = ept.translate(&mut mem, 0x1abc).unwrap();
        assert_eq!(t.hpa, 0xaaabc);
        assert_eq!(t.size, PageSize::Size4K);
        assert!(!t.perms.write);

        let t = ept.translate(&mut mem, 0x20_0000 + 12345).unwrap();
        assert_eq!(t.hpa, 0x4000_0000 + 12345);
        assert_eq!(t.size, PageSize::Size2M);

        let t = ept.translate(&mut mem, (1 << 30) + 0x9999).unwrap();
        assert_eq!(t.hpa, (3u64 << 30) + 0x9999);
        assert_eq!(t.size, PageSize::Size1G);
        assert_eq!(ept.mapped_leaves(), 3);
    }

    #[test]
    fn unmapped_gpa_errors() {
        let (mut mem, _alloc, ept) = setup(IntegrityMode::None);
        assert_eq!(
            ept.translate(&mut mem, 0x5000),
            Err(EptError::NotMapped { gpa: 0x5000 })
        );
    }

    #[test]
    fn misaligned_map_rejected() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::None);
        assert_eq!(
            ept.map(
                &mut mem,
                &mut alloc,
                0x1234,
                0,
                PageSize::Size4K,
                EptPerms::RWX
            ),
            Err(EptError::Misaligned)
        );
        assert_eq!(
            ept.map(
                &mut mem,
                &mut alloc,
                0x20_0000,
                0x1000,
                PageSize::Size2M,
                EptPerms::RWX
            ),
            Err(EptError::Misaligned)
        );
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::None);
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xA000,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        assert_eq!(
            ept.map(
                &mut mem,
                &mut alloc,
                0x1000,
                0xB000,
                PageSize::Size4K,
                EptPerms::RWX
            ),
            Err(EptError::AlreadyMapped { gpa: 0x1000 })
        );
    }

    #[test]
    fn unmap_then_translate_fails_then_remap() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::Checked);
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xA000,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        ept.unmap(&mut mem, 0x1000).unwrap();
        assert!(matches!(
            ept.translate(&mut mem, 0x1000),
            Err(EptError::NotMapped { .. })
        ));
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xB000,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        assert_eq!(ept.translate(&mut mem, 0x1000).unwrap().hpa, 0xB000);
    }

    #[test]
    fn corrupted_leaf_detected_with_integrity() {
        // The §5.4 scenario: a bit flip in a leaf entry redirects the VM.
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::Checked);
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xA000,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        // Find and corrupt the leaf entry (flip a PFN bit).
        let leaf_table = *ept.table_pages().last().unwrap();
        let entry_addr = leaf_table + 8;
        let raw = mem.read_u64(entry_addr);
        mem.write_u64(entry_addr, raw ^ (1 << 20));
        assert!(matches!(
            ept.translate(&mut mem, 0x1000),
            Err(EptError::IntegrityViolation { level: 1, .. })
        ));
    }

    #[test]
    fn corrupted_leaf_silently_redirects_without_integrity() {
        // Without secure EPT, the same flip silently translates to a
        // different HPA — the subarray-group escape Siloz must prevent via
        // guard rows on legacy hardware.
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::None);
        ept.map(
            &mut mem,
            &mut alloc,
            0x1000,
            0xA000,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        let leaf_table = *ept.table_pages().last().unwrap();
        let entry_addr = leaf_table + 8;
        let raw = mem.read_u64(entry_addr);
        mem.write_u64(entry_addr, raw ^ (1 << 20));
        let t = ept.translate(&mut mem, 0x1000).unwrap();
        assert_ne!(t.hpa, 0xA000, "flip redirected the mapping undetected");
    }

    #[test]
    fn corrupted_intermediate_detected() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::Checked);
        ept.map(&mut mem, &mut alloc, 0, 0, PageSize::Size4K, EptPerms::RWX)
            .unwrap();
        // Corrupt the root entry (level 4).
        let root_entry = ept.root();
        let raw = mem.read_u64(root_entry);
        mem.write_u64(root_entry, raw ^ (1 << 13));
        assert!(matches!(
            ept.translate(&mut mem, 0),
            Err(EptError::IntegrityViolation { level: 4, .. })
        ));
    }

    #[test]
    fn contiguous_2m_backing_shares_tables() {
        // §5.4: contiguous allocation + 2 MiB pages keep EPT page counts
        // tiny — 512 consecutive 2 MiB leaves fit one level-2 table.
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::Checked);
        for i in 0..512u64 {
            ept.map(
                &mut mem,
                &mut alloc,
                i * (2 << 20),
                (1 << 30) + i * (2 << 20),
                PageSize::Size2M,
                EptPerms::RWX,
            )
            .unwrap();
        }
        // Root + PDPT + one PD = 3 table pages for 1 GiB of mappings.
        assert_eq!(ept.table_pages().len(), 3);
        assert_eq!(ept.mapped_leaves(), 512);
    }

    /// A word store that counts what a DRAM-backed memory counts: a read
    /// of a dirty word (a flipped cell ECC corrects on every read) is
    /// recorded per address, and a write cleans the word it covers.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder {
        words: BTreeMap<u64, u64>,
        dirty: BTreeSet<u64>,
        reads: BTreeMap<u64, u32>,
    }

    /// `[phys, phys + 8n)` is non-empty and lies in one 64-byte line.
    fn one_line(phys: u64, n: usize) -> bool {
        n > 0 && phys / 64 == (phys + 8 * n as u64 - 8) / 64
    }

    impl PhysMem for Recorder {
        fn read_u64(&mut self, p: u64) -> u64 {
            if self.dirty.contains(&p) {
                *self.reads.entry(p).or_default() += 1;
            }
            self.words.get(&p).copied().unwrap_or(0)
        }
        fn write_u64(&mut self, p: u64, v: u64) {
            self.dirty.remove(&p);
            self.words.insert(p, v);
        }
        fn read_clean(&mut self, p: u64, out: &mut [u64]) -> bool {
            assert!(one_line(p, out.len()), "read_clean {p:#x} x{}", out.len());
            let addrs = (0..out.len() as u64).map(|j| p + 8 * j);
            if addrs.clone().any(|a| self.dirty.contains(&a)) {
                return false;
            }
            for (w, a) in out.iter_mut().zip(addrs) {
                *w = self.words.get(&a).copied().unwrap_or(0);
            }
            true
        }
        fn write_words(&mut self, p: u64, words: &[u64]) {
            assert!(
                one_line(p, words.len()),
                "write_words {p:#x} x{}",
                words.len()
            );
            for (j, &w) in words.iter().enumerate() {
                self.write_u64(p + 8 * j as u64, w);
            }
        }
    }

    /// Table pages from a bump pointer, `left` of them before it runs out.
    #[derive(Debug, PartialEq)]
    struct Budget {
        next: u64,
        left: usize,
    }
    impl EptAllocator for Budget {
        fn alloc_table_page(&mut self) -> Result<u64, EptError> {
            self.left = self.left.checked_sub(1).ok_or(EptError::OutOfMemory)?;
            self.next += TABLE_BYTES;
            Ok(self.next)
        }
    }

    const SIZES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// One lockstep case: the memory and tables a run is mapped over.
    #[derive(Debug, Clone)]
    struct Case {
        mode: IntegrityMode,
        size: PageSize,
        gpa: u64,
        hpas: Vec<u64>,
        /// `(page offset from gpa, size)` mapped beforehand, page by page.
        pre: Vec<(u64, PageSize)>,
        /// Table pages the run may draw.
        budget: usize,
        dirty: Vec<prop::sample::Index>,
        /// `(word, bit)` flipped in place after the pre-maps.
        corrupt: Vec<(prop::sample::Index, u32)>,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            (any::<bool>(), 0usize..3, 0u64..3, 500u64..530, 0usize..40),
            (any::<bool>(), 0usize..40, any::<bool>()),
            prop::collection::vec((0u64..48, 0usize..3), 0..5),
            (any::<bool>(), 0usize..6),
            prop::collection::vec(any::<prop::sample::Index>(), 0..6),
            prop::collection::vec((any::<prop::sample::Index>(), 0u32..52), 0..2),
        )
            .prop_map(
                |(
                    (checked, s, hi, first, len),
                    (mis, m, reverse),
                    pre,
                    (oom, budget),
                    dirty,
                    corrupt,
                )| {
                    let size = SIZES[s];
                    let bytes = size.bytes();
                    let mut hpas: Vec<u64> = (0..len as u64)
                        .map(|i| (7 << 40) + if reverse { len as u64 - i } else { i } * bytes)
                        .collect();
                    if mis && m < len {
                        hpas[m] += bytes / 2;
                    }
                    Case {
                        mode: if checked {
                            IntegrityMode::Checked
                        } else {
                            IntegrityMode::None
                        },
                        size,
                        gpa: (hi << 39) + first * bytes,
                        hpas,
                        pre: pre.into_iter().map(|(p, s)| (p, SIZES[s])).collect(),
                        budget: if oom { budget } else { usize::MAX },
                        dirty,
                        corrupt,
                    }
                },
            )
    }

    /// The state a case's run starts from, built the same way every time.
    fn prepare(case: &Case) -> (Recorder, Budget, Ept) {
        let mut mem = Recorder::default();
        let mut alloc = Budget {
            next: 0x100_0000,
            left: usize::MAX,
        };
        let mut ept = Ept::new(&mut mem, &mut alloc, case.mode, 0x5a17).unwrap();
        for &(p, size) in &case.pre {
            let gpa = (case.gpa + p * case.size.bytes()) & !(size.bytes() - 1);
            let _ = ept.map(&mut mem, &mut alloc, gpa, 3 << 40, size, EptPerms::RO);
        }
        alloc.left = case.budget;
        // Every entry installed so far, and the run's leaf slot in every
        // table.
        let first = Ept::index(case.gpa, case.size.leaf_level());
        let installed = mem.words.iter().filter(|&(_, &w)| w != 0);
        let mut words: BTreeSet<u64> = installed.map(|(&a, _)| a).collect();
        for &table in ept.table_pages() {
            words.extend((0..case.hpas.len() as u64).map(|j| table + (first + j) % ENTRIES * 8));
        }
        let words: Vec<u64> = words.into_iter().collect();
        for d in &case.dirty {
            mem.dirty.insert(words[d.index(words.len())]);
        }
        for (w, bit) in &case.corrupt {
            *mem.words.entry(words[w.index(words.len())]).or_default() ^= 1 << bit;
        }
        (mem, alloc, ept)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `map_run` against one `map` per page, stopping at the first
        /// failure: same memory, same side-effecting reads per address,
        /// same `(pages mapped, error)`, tables and counters. Runs cross a
        /// 512-entry boundary, meet pre-mapped pages at every size, a
        /// misaligned HPA, an allocator that runs dry, dirty upper and leaf
        /// words, and corrupted entries.
        #[test]
        fn map_run_matches_per_page_maps(case in arb_case()) {
            let (mut run_mem, mut run_alloc, mut run) = prepare(&case);
            let got = run.map_run(
                &mut run_mem, &mut run_alloc, case.gpa, case.size, &case.hpas, EptPerms::RWX,
            );
            let (mut mem, mut alloc, mut ept) = prepare(&case);
            let mut want = Ok(());
            for (i, &hpa) in case.hpas.iter().enumerate() {
                let gpa = case.gpa + i as u64 * case.size.bytes();
                if let Err(e) = ept.map(&mut mem, &mut alloc, gpa, hpa, case.size, EptPerms::RWX) {
                    want = Err((i, e));
                    break;
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(&run_mem, &mem);
            prop_assert_eq!(run_alloc, alloc);
            prop_assert_eq!(run.mapped_leaves(), ept.mapped_leaves());
            prop_assert_eq!(run.table_pages(), ept.table_pages());
            prop_assert_eq!(run.integrity_denials(), ept.integrity_denials());
        }
    }

    #[test]
    fn map_run_rewalks_when_a_corrupted_entry_loops_the_walk() {
        // A root entry redirected (no integrity) to a page that held a
        // table once and is free again: the walk follows a stale entry
        // there, then draws that same page as the leaf table and zeroes it.
        // The first leaf lands where the stale entry was, so the second
        // page's walk meets a leaf one level up.
        let size = PageSize::Size4K;
        let stale = 0x200_0000;
        let setup = || {
            let mut mem = Recorder::default();
            let mut alloc = Budget {
                next: 0x100_0000,
                left: usize::MAX,
            };
            let ept = Ept::new(&mut mem, &mut alloc, IntegrityMode::None, 0).unwrap();
            mem.write_u64(ept.root(), EptEntry::table(stale, IntegrityMode::None, 0).0);
            mem.write_u64(stale, EptEntry::table(0x300_0000, IntegrityMode::None, 0).0);
            alloc.next = stale - TABLE_BYTES;
            (mem, alloc, ept)
        };
        let hpas: Vec<u64> = (0..4).map(|i| (1 << 32) + i * size.bytes()).collect();
        let (mut run_mem, mut run_alloc, mut run) = setup();
        let got = run.map_run(&mut run_mem, &mut run_alloc, 0, size, &hpas, EptPerms::RWX);
        let (mut mem, mut alloc, mut ept) = setup();
        let gpa = size.bytes();
        ept.map(&mut mem, &mut alloc, 0, hpas[0], size, EptPerms::RWX)
            .unwrap();
        let second = ept.map(&mut mem, &mut alloc, gpa, hpas[1], size, EptPerms::RWX);
        assert_eq!(second, Err(EptError::AlreadyMapped { gpa }));
        assert_eq!(got, Err((1, EptError::AlreadyMapped { gpa })));
        assert_eq!(run_mem, mem);
        assert_eq!(run.mapped_leaves(), 1);
    }

    #[test]
    fn table_pages_reported_for_placement() {
        let (mut mem, mut alloc, mut ept) = setup(IntegrityMode::None);
        let before = ept.table_pages().len();
        ept.map(
            &mut mem,
            &mut alloc,
            0x4000_0000,
            0,
            PageSize::Size4K,
            EptPerms::RWX,
        )
        .unwrap();
        assert!(ept.table_pages().len() > before);
        assert_eq!(ept.table_pages()[0], ept.root());
    }
}
