//! Siloz boot configuration (Table 2 and §5.3 boot parameters).

use dram_addr::decoder::DecoderConfig;
use dram_addr::{Geometry, InternalMapConfig};

/// How EPT integrity is provided (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptProtection {
    /// Software guard rows: a block of `b` row groups per socket with the
    /// EPT row group at offset `o`; the rest are guard rows. The paper's
    /// implementation uses `b = 32`, `o = 12`.
    GuardRows {
        /// Total reserved row groups per socket.
        b: u32,
        /// Offset of the EPT row group within the block.
        o: u32,
    },
    /// Hardware secure EPT (TDX/SNP-style integrity checks on walks).
    SecureEpt,
    /// No protection (baseline hypervisor).
    None,
}

impl EptProtection {
    /// The paper's guard-row parameters.
    #[must_use]
    pub const fn paper_guard_rows() -> Self {
        EptProtection::GuardRows { b: 32, o: 12 }
    }
}

/// Full boot-time configuration of a hypervisor instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SilozConfig {
    /// DRAM geometry (true subarray size included).
    pub geometry: Geometry,
    /// Physical-to-media decoder configuration (fixed by BIOS, §2.4).
    pub decoder: DecoderConfig,
    /// Rows per subarray as *presumed by Siloz* — the boot parameter of
    /// §5.3. May differ from the geometry's true size in sensitivity
    /// experiments (§7.4).
    pub presumed_subarray_rows: u32,
    /// DIMM-internal address transformations to account for (§6).
    pub internal_map: InternalMapConfig,
    /// EPT protection scheme.
    pub ept_protection: EptProtection,
    /// Logical cores per socket (Table 2: 40).
    pub cores_per_socket: u32,
    /// Number of host-reserved subarray groups per socket (§5.2: all but
    /// one logical node per socket is guest-reserved).
    pub host_groups_per_socket: u32,
}

impl SilozConfig {
    /// The evaluation server configuration (Table 2) with the paper's
    /// defaults: 1024-row subarrays presumed, guard-row EPT protection.
    #[must_use]
    pub fn evaluation() -> Self {
        Self {
            geometry: dram_addr::skylake_geometry(),
            decoder: DecoderConfig::default(),
            presumed_subarray_rows: 1024,
            internal_map: InternalMapConfig::default(),
            ept_protection: EptProtection::paper_guard_rows(),
            cores_per_socket: 40,
            host_groups_per_socket: 1,
        }
    }

    /// A scaled-down configuration for fast tests and examples, built on
    /// [`dram_addr::mini_geometry`] (1 socket, 1 GiB, 256-row subarrays).
    #[must_use]
    pub fn mini() -> Self {
        Self {
            geometry: dram_addr::mini_geometry(),
            decoder: DecoderConfig {
                row_groups_per_block: 4,
                jump_bytes: 64 << 20,
                bank_hash: dram_addr::BankHash::XorRow,
            },
            presumed_subarray_rows: 256,
            // 256-row subarrays sit below the commodity 512-2048 range:
            // odd-rank mirroring (swapping <b7,b8>) would split them across
            // internal subarrays (§6), so the mini machine models DIMMs
            // without mirroring (inversion alone is always block-wise).
            internal_map: InternalMapConfig {
                mirroring: false,
                inversion: true,
                scrambling: false,
            },
            ept_protection: EptProtection::GuardRows { b: 8, o: 3 },
            cores_per_socket: 8,
            host_groups_per_socket: 1,
        }
    }

    /// Returns a copy presuming a different subarray size (Siloz-512 /
    /// Siloz-1024 / Siloz-2048, §7.4).
    #[must_use]
    pub fn with_presumed_subarray_rows(mut self, rows: u32) -> Self {
        self.presumed_subarray_rows = rows;
        self
    }

    /// Size in bytes of one (presumed) subarray group (§4.1).
    #[must_use]
    pub fn subarray_group_bytes(&self) -> u64 {
        self.presumed_subarray_rows as u64 * self.geometry.row_group_bytes()
    }

    /// Number of whole (presumed) subarray groups per socket.
    #[must_use]
    pub fn groups_per_socket(&self) -> u32 {
        self.geometry.rows_per_bank / self.presumed_subarray_rows
    }

    /// Renders the Table 2-style configuration summary.
    #[must_use]
    pub fn render_table2(&self) -> String {
        let g = &self.geometry;
        format!(
            "Parameter      | Value\n\
             ---------------+------------------------------------------------------------\n\
             Host Machine   | {} sockets; per-socket: {} logical cores, {} GiB DDR4 DRAM\n\
             Memory geometry| {} ch x {} DIMM x {} ranks x {} banks = {} banks/socket,\n\
             Subarrays      | {} rows of {} KiB per subarray\n\
             Hypervisor     | Siloz (subarray groups as logical NUMA nodes)\n\
             Subarray rows  | {} presumed (boot parameter)\n\
             EPT protection | {:?}",
            g.sockets,
            self.cores_per_socket,
            g.socket_bytes() >> 30,
            g.channels_per_socket,
            g.dimms_per_channel,
            g.ranks_per_dimm,
            g.banks_per_rank(),
            g.banks_per_socket(),
            g.rows_per_subarray,
            g.row_bytes >> 10,
            self.presumed_subarray_rows,
            self.ept_protection,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_config_matches_paper() {
        let c = SilozConfig::evaluation();
        assert_eq!(c.subarray_group_bytes(), 3 << 29, "1.5 GiB groups");
        assert_eq!(c.groups_per_socket(), 128);
        assert_eq!(c.ept_protection, EptProtection::GuardRows { b: 32, o: 12 });
    }

    #[test]
    fn sensitivity_variants_scale_group_counts() {
        // §7.4: Siloz-512 needs twice the nodes of Siloz-1024; Siloz-2048
        // half.
        let c1024 = SilozConfig::evaluation();
        let c512 = c1024.clone().with_presumed_subarray_rows(512);
        let c2048 = c1024.clone().with_presumed_subarray_rows(2048);
        assert_eq!(c512.groups_per_socket(), 2 * c1024.groups_per_socket());
        assert_eq!(c2048.groups_per_socket(), c1024.groups_per_socket() / 2);
        assert_eq!(c512.subarray_group_bytes(), 3 << 28); // 0.75 GiB
        assert_eq!(c2048.subarray_group_bytes(), 3 << 30); // 3 GiB
    }

    #[test]
    fn mini_config_is_consistent() {
        let c = SilozConfig::mini();
        assert_eq!(c.groups_per_socket(), 8);
        c.geometry.validate().unwrap();
    }

    #[test]
    fn table2_renders() {
        let s = SilozConfig::evaluation().render_table2();
        assert!(s.contains("192 banks"));
        assert!(s.contains("1024 presumed"));
    }
}
