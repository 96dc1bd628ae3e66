//! Sparse paged byte-addressable memory.

use redsim_util::FxHashMap;

use crate::error::EmuError;
use crate::op::MemWidth;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;

/// Lowest mappable address; accesses below this fault, catching null
/// and near-null pointer bugs in workloads.
pub const NULL_GUARD: u64 = 0x1000;

/// Sparse, demand-allocated memory.
///
/// Pages materialize on first write; reads of never-written locations
/// return zero (the convention of trace-driven simulators, where the OS
/// zero-fills fresh pages). Accesses must be naturally aligned.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `bytes` into memory starting at `base`, one page-sized
    /// slice at a time.
    pub fn load_segment(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0; PAGE_SIZE]));
            page[off..off + chunk.len()].copy_from_slice(chunk);
            addr += chunk.len() as u64;
            rest = tail;
        }
    }

    fn check(&self, addr: u64, width: MemWidth, pc: u64) -> Result<(), EmuError> {
        if addr < NULL_GUARD {
            return Err(EmuError::BadAddress { addr, pc });
        }
        let align = width.bytes();
        if !addr.is_multiple_of(align) {
            return Err(EmuError::Misaligned { addr, align, pc });
        }
        Ok(())
    }

    /// Reads a zero-extended value of the given width.
    ///
    /// # Errors
    ///
    /// Fails on misaligned or null-page accesses; `pc` is only used to
    /// annotate the error.
    pub fn read(&self, addr: u64, width: MemWidth, pc: u64) -> Result<u64, EmuError> {
        self.check(addr, width, pc)?;
        // Natural alignment keeps the access inside one page, so a
        // single page probe covers every byte.
        let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
            return Ok(0);
        };
        let off = (addr & PAGE_MASK) as usize;
        let mut v: u64 = 0;
        for i in (0..width.bytes() as usize).rev() {
            v = v << 8 | u64::from(page[off + i]);
        }
        Ok(v)
    }

    /// Writes the low `width` bytes of `value`.
    ///
    /// # Errors
    ///
    /// Fails on misaligned or null-page accesses.
    pub fn write(
        &mut self,
        addr: u64,
        width: MemWidth,
        value: u64,
        pc: u64,
    ) -> Result<(), EmuError> {
        self.check(addr, width, pc)?;
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]));
        let off = (addr & PAGE_MASK) as usize;
        for i in 0..width.bytes() as usize {
            page[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Number of materialized pages (for footprint reporting).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0x2000, MemWidth::B8, 0).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_all_widths() {
        let mut m = Memory::new();
        for (w, v) in [
            (MemWidth::B1, 0xab),
            (MemWidth::B2, 0xabcd),
            (MemWidth::B4, 0xdead_beef),
            (MemWidth::B8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x4000, w, v, 0).unwrap();
            assert_eq!(m.read(0x4000, w, 0).unwrap(), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write(0x4000, MemWidth::B4, 0x0403_0201, 0).unwrap();
        for i in 0..4u64 {
            assert_eq!(m.read(0x4000 + i, MemWidth::B1, 0).unwrap(), i + 1);
        }
    }

    #[test]
    fn partial_width_write_preserves_neighbours() {
        let mut m = Memory::new();
        m.write(0x4000, MemWidth::B8, u64::MAX, 0).unwrap();
        m.write(0x4002, MemWidth::B2, 0, 0).unwrap();
        assert_eq!(
            m.read(0x4000, MemWidth::B8, 0).unwrap(),
            0xffff_ffff_0000_ffff
        );
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = Memory::new();
        let addr = 2 * PAGE_SIZE as u64 - 8;
        m.write(addr, MemWidth::B8, 0x1122_3344_5566_7788, 0)
            .unwrap();
        assert_eq!(
            m.read(addr, MemWidth::B8, 0).unwrap(),
            0x1122_3344_5566_7788
        );
    }

    #[test]
    fn null_page_faults() {
        let mut m = Memory::new();
        assert!(matches!(
            m.read(0x8, MemWidth::B8, 0x1000),
            Err(EmuError::BadAddress {
                addr: 0x8,
                pc: 0x1000
            })
        ));
        assert!(m.write(0x0, MemWidth::B1, 1, 0).is_err());
    }

    #[test]
    fn misaligned_access_faults() {
        let m = Memory::new();
        let e = m.read(0x4001, MemWidth::B8, 0x1000).unwrap_err();
        assert!(matches!(e, EmuError::Misaligned { align: 8, .. }));
        assert!(m.read(0x4001, MemWidth::B1, 0).is_ok());
        assert!(m.read(0x4002, MemWidth::B2, 0).is_ok());
        assert!(m.read(0x4002, MemWidth::B4, 0).is_err());
    }

    #[test]
    fn load_segment_places_bytes() {
        let mut m = Memory::new();
        m.load_segment(0x1000_0000, &[1, 2, 3]);
        assert_eq!(m.read(0x1000_0000, MemWidth::B1, 0).unwrap(), 1);
        assert_eq!(m.read(0x1000_0002, MemWidth::B1, 0).unwrap(), 3);
    }

    #[test]
    fn page_wise_load_matches_byte_wise_writes() {
        let page = PAGE_SIZE as u64;
        let cases = [
            (0x1000_0000, 0),
            (0x1000_0000, 1),
            (0x1000_0000, PAGE_SIZE),
            (0x1000_0000 + page - 3, 7),
            (0x1000_0000 + 5, PAGE_SIZE),
            (0x1000_0000 + 100, 3 * PAGE_SIZE + 17),
            (0x1000_0000 + page - 1, 2 * PAGE_SIZE + 2),
        ];
        for (base, len) in cases {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let mut paged = Memory::new();
            paged.load_segment(base, &bytes);
            let mut bytewise = Memory::new();
            for (i, &b) in bytes.iter().enumerate() {
                bytewise
                    .write(base + i as u64, MemWidth::B1, u64::from(b), 0)
                    .unwrap();
            }
            assert_eq!(
                paged.resident_pages(),
                bytewise.resident_pages(),
                "base {base:#x} len {len}"
            );
            let span = (base & !PAGE_MASK) - page..(base + len as u64 + 2 * page) & !PAGE_MASK;
            for addr in span {
                assert_eq!(
                    paged.read(addr, MemWidth::B1, 0),
                    bytewise.read(addr, MemWidth::B1, 0),
                    "base {base:#x} len {len} addr {addr:#x}"
                );
            }
        }
    }
}

#[cfg(test)]
mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_util::Rng;

    #[test]
    fn read_returns_last_write() {
        let mut rng = Rng::new(0x3E3_0001);
        for _ in 0..256 {
            let addr = rng.range_u64(0x1000, 0x10_0000) & !7;
            let v = rng.next_u64();
            let mut m = Memory::new();
            m.write(addr, MemWidth::B8, v, 0).unwrap();
            assert_eq!(m.read(addr, MemWidth::B8, 0).unwrap(), v, "addr={addr:#x}");
        }
    }

    #[test]
    fn narrow_reads_compose_wide_value() {
        let mut rng = Rng::new(0x3E3_0002);
        for _ in 0..256 {
            let addr = rng.range_u64(0x1000, 0x10_0000) & !7;
            let v = rng.next_u64();
            let mut m = Memory::new();
            m.write(addr, MemWidth::B8, v, 0).unwrap();
            let lo = m.read(addr, MemWidth::B4, 0).unwrap();
            let hi = m.read(addr + 4, MemWidth::B4, 0).unwrap();
            assert_eq!(hi << 32 | lo, v, "addr={addr:#x}");
        }
    }
}
