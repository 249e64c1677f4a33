//! Data memory: flat main memory, set-associative caches, and the
//! two-level hierarchy latency model.

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::config::{CacheConfig, SimConfig};

/// Page granule of the sparse checkpoint memory encoding and of the
/// touched-page bitmap.
const CKPT_PAGE: usize = 4096;

/// Flat, byte-addressable simulated main memory.
///
/// Addresses are wrapped into the configured power-of-two window so that
/// wrong-path accesses with garbage addresses (a normal occurrence in an
/// execution-driven simulator that executes mispredicted paths) never
/// escape the simulated address space.
///
/// Beside the flat bytes sits a touched-page bitmap, one bit per
/// [`CKPT_PAGE`], holding one invariant: **a clear bit means the page is
/// all zero**. The two write paths, [`MainMemory::write_u64`] and the
/// checkpoint load, set the bits of the pages they write, so snapshot,
/// restore and clone visit only the touched footprint and never scan or
/// zero the whole window.
#[derive(Debug)]
pub struct MainMemory {
    data: Vec<u8>,
    mask: u64,
    touched: Vec<u64>,
}

impl MainMemory {
    /// Allocates `size` bytes of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: usize) -> MainMemory {
        assert!(size.is_power_of_two(), "memory size must be a power of two");
        let words = size.div_ceil(CKPT_PAGE).div_ceil(64);
        MainMemory { data: vec![0; size], mask: size as u64 - 1, touched: vec![0; words] }
    }

    /// Wraps an arbitrary 64-bit address into the memory window.
    pub fn wrap(&self, addr: u64) -> u64 {
        addr & self.mask
    }

    /// Reads a little-endian 64-bit word. The address is wrapped; reads
    /// that straddle the wrap point see the window as circular.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = self.wrap(addr) as usize;
        match self.data.get(a..a + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8-byte slice")),
            None => self.read_u64_wrapping(addr),
        }
    }

    #[cold]
    fn read_u64_wrapping(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.data[self.wrap(addr.wrapping_add(i as u64)) as usize];
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 64-bit word at a wrapped address.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let a = self.wrap(addr) as usize;
        match self.data.get_mut(a..a + 8) {
            Some(word) => word.copy_from_slice(&value.to_le_bytes()),
            None => self.write_u64_wrapping(addr, value),
        }
        // A word spans at most two pages: its first byte's and its last
        // byte's (which differ when it crosses a page boundary or wraps
        // past the window end).
        self.mark(a / CKPT_PAGE);
        self.mark(self.wrap(addr.wrapping_add(7)) as usize / CKPT_PAGE);
    }

    #[cold]
    fn write_u64_wrapping(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            let a = self.wrap(addr.wrapping_add(i as u64)) as usize;
            self.data[a] = *b;
        }
    }

    /// Memory window size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn mark(&mut self, page: usize) {
        self.touched[page / 64] |= 1 << (page % 64);
    }

    /// The bytes of page `i`.
    fn page(&self, i: usize) -> &[u8] {
        &self.data[page_range(i, self.data.len())]
    }

    /// Serializes the memory image sparsely: all-zero 4 KiB pages are
    /// skipped, so a checkpoint costs space proportional to the touched
    /// footprint, not the configured window. Only touched pages are
    /// inspected (untouched ones are zero by the bitmap invariant), so
    /// the cost is proportional to the footprint too.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.data.len() as u64);
        let nonzero: Vec<usize> = touched_pages(&self.touched)
            .filter(|&i| self.page(i).iter().any(|&b| b != 0))
            .collect();
        w.u64(nonzero.len() as u64);
        for i in nonzero {
            w.u64(i as u64);
            w.bytes(self.page(i));
        }
    }

    /// Restores the memory image, zeroing everything not present in the
    /// checkpoint (restore is wholesale, never a partial overlay). Only
    /// the touched pages need zeroing; the loaded pages become the new
    /// touched set.
    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let size = r.u64()? as usize;
        if size != self.data.len() {
            return Err(CkptError::Corrupt(format!(
                "memory window of {size} bytes in checkpoint, {} configured",
                self.data.len()
            )));
        }
        for i in touched_pages(&self.touched) {
            self.data[page_range(i, size)].fill(0);
        }
        self.touched.fill(0);
        let pages = r.seq_len(16)?;
        for _ in 0..pages {
            let i = r.u64()? as usize;
            let bytes = r.bytes()?;
            let range = (i < size.div_ceil(CKPT_PAGE))
                .then(|| page_range(i, size))
                .ok_or_else(|| CkptError::Corrupt(format!("memory page {i} outside the window")))?;
            if bytes.len() != range.len() {
                return Err(CkptError::Corrupt(format!(
                    "memory page {i} has {} bytes",
                    bytes.len()
                )));
            }
            self.data[range].copy_from_slice(bytes);
            self.mark(i);
        }
        Ok(())
    }
}

/// The byte range of page `i` in a window of `size` bytes (the only page
/// of a window smaller than [`CKPT_PAGE`] is short).
fn page_range(i: usize, size: usize) -> std::ops::Range<usize> {
    let start = i * CKPT_PAGE;
    start..(start + CKPT_PAGE).min(size)
}

/// Indices of the set bits of a touched-page bitmap, ascending.
fn touched_pages(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter()
        .enumerate()
        .flat_map(|(w, &word)| (0..64).filter(move |b| word >> b & 1 != 0).map(move |b| w * 64 + b))
}

/// Copies only the touched pages into a fresh zeroed window, so a clone
/// costs the footprint, not the window (the allocator hands back lazily
/// zeroed pages, which untouched regions never fault in).
impl Clone for MainMemory {
    fn clone(&self) -> MainMemory {
        let mut m = MainMemory::new(self.data.len());
        for i in touched_pages(&self.touched) {
            let r = page_range(i, self.data.len());
            m.data[r.clone()].copy_from_slice(&self.data[r]);
        }
        m.touched.clone_from(&self.touched);
        m
    }
}

/// One set-associative, LRU cache level (tag store only — the latency
/// model does not move data).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set][way]` — `None` is an invalid way.
    tags: Vec<Vec<Option<u64>>>,
    /// `lru[set][way]` — larger is more recently used.
    lru: Vec<Vec<u64>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            tags: vec![vec![None; cfg.ways]; sets],
            lru: vec![vec![0; cfg.ways]; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line as usize) & (self.cfg.sets() - 1);
        let tag = line / self.cfg.sets() as u64;
        (set, tag)
    }

    /// Accesses `addr`, allocating the line on a miss (LRU victim).
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        for way in 0..self.cfg.ways {
            if self.tags[set][way] == Some(tag) {
                self.lru[set][way] = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        // Fill the LRU (or first invalid) way.
        let victim = (0..self.cfg.ways)
            .min_by_key(
                |&w| if self.tags[set][w].is_none() { (0, 0) } else { (1, self.lru[set][w]) },
            )
            .expect("cache has at least one way");
        self.tags[set][victim] = Some(tag);
        self.lru[set][victim] = self.tick;
        false
    }

    /// Whether `addr` is currently resident (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tags[set].contains(&Some(tag))
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Access latency of this level.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// The resident line numbers (address / line size), sorted — the
    /// warmup-fidelity tests compare these between a functional warmup
    /// and a cycle-accurate run.
    pub fn resident_lines(&self) -> Vec<u64> {
        let sets = self.cfg.sets() as u64;
        let mut out: Vec<u64> = self
            .tags
            .iter()
            .enumerate()
            .flat_map(|(set, ways)| ways.iter().flatten().map(move |&tag| tag * sets + set as u64))
            .collect();
        out.sort_unstable();
        out
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.cfg.sets() as u64);
        w.u64(self.cfg.ways as u64);
        w.u64(self.tick);
        w.u64(self.hits);
        w.u64(self.misses);
        for (set_tags, set_lru) in self.tags.iter().zip(&self.lru) {
            for (tag, lru) in set_tags.iter().zip(set_lru) {
                w.opt_u64(*tag);
                w.u64(*lru);
            }
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let (sets, ways) = (r.u64()? as usize, r.u64()? as usize);
        if sets != self.cfg.sets() || ways != self.cfg.ways {
            return Err(CkptError::Corrupt(format!(
                "cache geometry {sets}x{ways} in checkpoint, {}x{} configured",
                self.cfg.sets(),
                self.cfg.ways
            )));
        }
        self.tick = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        for (set_tags, set_lru) in self.tags.iter_mut().zip(&mut self.lru) {
            for (tag, lru) in set_tags.iter_mut().zip(set_lru.iter_mut()) {
                *tag = r.opt_u64()?;
                *lru = r.u64()?;
            }
        }
        Ok(())
    }
}

/// Two-level cache hierarchy plus DRAM, returning access latencies.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// Unified L2 cache.
    pub l2: Cache,
    dram_latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Hierarchy {
        Hierarchy {
            l1: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dram_latency: cfg.dram_latency,
        }
    }

    /// Performs an access and returns its total latency in cycles:
    /// L1 hit → L1 latency; L2 hit → L1+L2; miss everywhere → L1+L2+DRAM.
    /// Lines are allocated at every missed level (write-allocate).
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            return self.l1.latency();
        }
        if self.l2.access(addr) {
            return self.l1.latency() + self.l2.latency();
        }
        self.l1.latency() + self.l2.latency() + self.dram_latency
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        self.l1.ckpt_save(w);
        self.l2.ckpt_save(w);
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.l1.ckpt_load(r)?;
        self.l2.ckpt_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 3 })
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = MainMemory::new(1 << 16);
        m.write_u64(0x100, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x100), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x108), 0, "adjacent word untouched");
    }

    #[test]
    fn memory_wraps_garbage_addresses() {
        let mut m = MainMemory::new(1 << 12);
        m.write_u64(u64::MAX - 3, 7); // wraps
        assert_eq!(m.wrap(1 << 12), 0);
        assert_eq!(m.wrap((1 << 12) + 5), 5);
        // Reading back through the wrapped alias sees the same bytes.
        assert_eq!(m.read_u64(u64::MAX - 3), 7);
    }

    #[test]
    fn memory_unaligned_overlap() {
        let mut m = MainMemory::new(1 << 12);
        m.write_u64(0, 0x0102_0304_0506_0708);
        // Overlapping read shifted by one byte.
        assert_eq!(m.read_u64(1) & 0xff, 0x07);
    }

    /// The pre-bitmap encoder: scans every page of the window.
    fn reference_ckpt(m: &MainMemory) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.u64(m.data.len() as u64);
        let pages = m.data.chunks(CKPT_PAGE);
        w.u64(pages.clone().filter(|p| p.iter().any(|&b| b != 0)).count() as u64);
        for (i, page) in pages.enumerate() {
            if page.iter().any(|&b| b != 0) {
                w.u64(i as u64);
                w.bytes(page);
            }
        }
        w.finish()
    }

    fn encode(m: &MainMemory) -> Vec<u8> {
        let mut w = CkptWriter::new();
        m.ckpt_save(&mut w);
        w.finish()
    }

    fn assert_untouched_pages_are_zero(m: &MainMemory) {
        let touched: Vec<usize> = touched_pages(&m.touched).collect();
        for (i, page) in m.data.chunks(CKPT_PAGE).enumerate() {
            if !touched.contains(&i) {
                assert!(page.iter().all(|&b| b == 0), "unmarked page {i} holds data");
            }
        }
    }

    /// Random stores into a 16-page window, biased toward the edge
    /// cases of the bitmap: page-crossing words, words wrapping past the
    /// window end, garbage addresses, and zero stores that re-zero a
    /// page it then must still skip.
    fn random_stores(rng: &mut crate::prop::Rng, m: &mut MainMemory) {
        let size = m.size() as u64;
        let hot: Vec<u64> = (0..4).map(|_| rng.below(size)).collect();
        for _ in 0..rng.range(1, 120) {
            let addr = match rng.below(5) {
                0 => size - 3,
                1 => (rng.below(size / CKPT_PAGE as u64) + 1) * CKPT_PAGE as u64 - rng.below(8),
                2 => rng.next_u64(),
                3 => hot[rng.range(0, hot.len())],
                _ => rng.below(size),
            };
            let value = if rng.chance(1, 3) { 0 } else { rng.next_u64() };
            m.write_u64(addr, value);
            assert_eq!(m.read_u64(addr), value, "read-back at {addr:#x}");
        }
    }

    #[test]
    fn touched_page_encoding_matches_full_window_scan() {
        crate::prop::for_each_case("touched_page_encoding", 200, 0x70c4_ed00, |rng| {
            let mut m = MainMemory::new(16 * CKPT_PAGE);
            random_stores(rng, &mut m);
            assert_untouched_pages_are_zero(&m);
            let bytes = encode(&m);
            assert_eq!(bytes, reference_ckpt(&m), "bitmap walk diverged from the full scan");

            // Restoring over a machine with its own (dirtier) footprint
            // zeroes that footprint and reproduces the image exactly.
            let mut other = MainMemory::new(m.size());
            random_stores(rng, &mut other);
            random_stores(rng, &mut other);
            let mut r = CkptReader::new(&bytes);
            other.ckpt_load(&mut r).expect("own encoding restores");
            r.done().expect("restore consumes the whole encoding");
            assert!(other.data == m.data, "restored image differs");
            assert_untouched_pages_are_zero(&other);
            assert_eq!(encode(&other), bytes, "re-snapshot after restore");

            let c = m.clone();
            assert!(c.data == m.data, "clone differs");
            assert_eq!(encode(&c), bytes);
        });
    }

    #[test]
    fn rezeroed_and_wrapping_pages_encode_like_the_full_scan() {
        let mut m = MainMemory::new(4 * CKPT_PAGE);
        m.write_u64(CKPT_PAGE as u64 + 8, 5);
        m.write_u64(CKPT_PAGE as u64 + 8, 0); // page 1: touched, all zero again
        m.write_u64(m.size() as u64 - 3, u64::MAX); // wraps: last page and page 0
        assert_eq!(m.read_u64(0), u64::MAX >> 24);
        let bytes = encode(&m);
        assert_eq!(bytes, reference_ckpt(&m));
        let mut r = CkptReader::new(&bytes);
        assert_eq!(r.u64(), Ok(m.size() as u64));
        assert_eq!(r.u64(), Ok(2), "the re-zeroed page is skipped");
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = tiny_cache();
        assert!(!c.access(0x0), "cold miss");
        assert!(c.access(0x0), "now resident");
        assert!(c.access(0x3f), "same line");
        assert!(!c.access(0x40), "next line misses");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn cache_lru_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let (a, b, d) = (0x000, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a more recent than b
        assert!(!c.access(d), "fills set, evicting b");
        assert!(c.probe(a), "a survives");
        assert!(!c.probe(b), "b evicted");
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_allocate() {
        let c = tiny_cache();
        assert!(!c.probe(0x0));
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let cfg = SimConfig::default();
        let mut h = Hierarchy::new(&cfg);
        let cold = h.access(0x1000);
        assert_eq!(cold, 3 + 12 + 120, "cold access reaches DRAM");
        let l1_hit = h.access(0x1000);
        assert_eq!(l1_hit, 3);
        // Evict from L1 by filling its set, then the line should still hit L2.
        // L1: 256 sets, 4 ways; same-set stride = 256 sets * 64 B = 16 KB.
        for i in 1..=4u64 {
            h.access(0x1000 + i * 16 * 1024);
        }
        let l2_hit = h.access(0x1000);
        assert_eq!(l2_hit, 3 + 12, "evicted from L1 but resident in L2");
    }
}
