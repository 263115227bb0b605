//! Analytical energy model for memories and MACs.
//!
//! The paper extracts SRAM access costs with CACTI 7 and scales the MAC,
//! register and DRAM costs with the factors reported by Interstellar \[37\].
//! CACTI is not available here, so this module substitutes an analytical fit
//! with the same qualitative behaviour: access energy grows roughly with the
//! square root of the macro capacity, registers are far cheaper than SRAM, and
//! DRAM is one to two orders of magnitude more expensive than on-chip SRAM.
//! Only *relative* costs matter for schedule ranking (see
//! `docs/paper-map.md`, "Deliberate deviations from the paper").
//!
//! All energies are in picojoules per byte transferred unless stated otherwise.

/// Energy of one 8-bit MAC operation, in pJ.
pub const MAC_ENERGY_PJ: f64 = 0.1;

/// Energy per byte of a register-file access, in pJ.
pub const REGISTER_ENERGY_PJ_PER_BYTE: f64 = 0.02;

/// Energy per byte of a DRAM access, in pJ (LPDDR-class interface).
pub const DRAM_ENERGY_PJ_PER_BYTE: f64 = 100.0;

/// DRAM bandwidth in bytes per cycle. The paper fixes the DRAM interface to
/// 64 bit/cycle for all case studies to mimic the on-/off-chip bottleneck.
pub const DRAM_BYTES_PER_CYCLE: f64 = 8.0;

/// CACTI-like SRAM read/write energy fit, in pJ per byte, as a function of the
/// macro capacity in bytes.
///
/// The fit `0.1 + 0.15·sqrt(KB)` reproduces the usual CACTI trend: a 32 KB
/// scratchpad costs slightly under 1 pJ/B while a 2 MB global buffer costs
/// several pJ/B, an order of magnitude below DRAM.
///
/// ```
/// use defines_arch::energy::sram_energy_pj_per_byte;
/// let lb = sram_energy_pj_per_byte(32 * 1024);
/// let gb = sram_energy_pj_per_byte(2 * 1024 * 1024);
/// assert!(lb < gb);
/// assert!(gb < defines_arch::energy::DRAM_ENERGY_PJ_PER_BYTE);
/// ```
pub fn sram_energy_pj_per_byte(capacity_bytes: u64) -> f64 {
    let kb = capacity_bytes as f64 / 1024.0;
    0.1 + 0.15 * kb.max(0.25).sqrt()
}

/// Default on-chip SRAM bandwidth in bytes per cycle for a macro of the given
/// capacity.
///
/// The paper sizes on-chip banking/bandwidth "such that the PE array can get
/// enough data to work at its full speed for ideal workloads"; we model that
/// as generous bandwidths that grow with the macro size class: local buffers
/// provide 32 B/cycle, global buffers 64 B/cycle.
pub fn sram_bytes_per_cycle(capacity_bytes: u64) -> f64 {
    if capacity_bytes <= 256 * 1024 {
        32.0
    } else {
        64.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_monotone_in_capacity() {
        let sizes = [
            1024u64,
            32 * 1024,
            64 * 1024,
            256 * 1024,
            1024 * 1024,
            2 * 1024 * 1024,
        ];
        for w in sizes.windows(2) {
            assert!(
                sram_energy_pj_per_byte(w[0]) < sram_energy_pj_per_byte(w[1]),
                "energy must grow with capacity ({} vs {})",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn ordering_register_sram_dram() {
        let lb = sram_energy_pj_per_byte(64 * 1024);
        let gb = sram_energy_pj_per_byte(2 * 1024 * 1024);
        assert!(REGISTER_ENERGY_PJ_PER_BYTE < lb);
        assert!(lb < gb);
        assert!(gb < DRAM_ENERGY_PJ_PER_BYTE);
        // DRAM at least 5x the biggest on-chip memory.
        assert!(DRAM_ENERGY_PJ_PER_BYTE / gb > 5.0);
    }

    #[test]
    fn bandwidth_classes() {
        assert_eq!(sram_bytes_per_cycle(32 * 1024), 32.0);
        assert_eq!(sram_bytes_per_cycle(1024 * 1024), 64.0);
        assert!(DRAM_BYTES_PER_CYCLE < sram_bytes_per_cycle(32 * 1024));
    }

    #[test]
    fn tiny_capacity_does_not_underflow() {
        assert!(sram_energy_pj_per_byte(0) > 0.0);
        assert!(sram_energy_pj_per_byte(16) > 0.0);
    }
}
