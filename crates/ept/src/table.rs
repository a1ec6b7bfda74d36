//! The 4-level EPT radix tree, stored in simulated physical memory.

use crate::entry::{EptEntry, EptPerms, IntegrityMode, PageSize};
use crate::{LEVELS, LEVEL_BITS, TABLE_BYTES};
use telemetry::Counter;

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

    /// The integrity mode in force.
    #[must_use]
    pub fn integrity_mode(&self) -> IntegrityMode {
        self.mode
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
        if !gpa.is_multiple_of(size.bytes()) || !hpa.is_multiple_of(size.bytes()) {
            return Err(EptError::Misaligned);
        }
        let leaf_level = size.leaf_level();
        let mut table = self.root;
        let mut level = LEVELS;
        while level > leaf_level {
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
        let entry_addr = table + Self::index(gpa, leaf_level) * 8;
        let existing = EptEntry(mem.read_u64(entry_addr));
        if existing.is_present() {
            return Err(EptError::AlreadyMapped { gpa });
        }
        mem.write_u64(
            entry_addr,
            EptEntry::leaf(hpa, perms, self.mode, self.salt).0,
        );
        self.mapped_leaves += 1;
        Ok(())
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
    use std::collections::HashMap;

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
