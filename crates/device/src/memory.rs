//! Capacity-tracked memory pools for the GPU/CPU/SSD tiers.

use crate::{DeviceError, Result};

/// A storage tier in the paper's memory hierarchy (Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Tier {
    /// GPU high-bandwidth memory (80 GB on the paper's A100).
    Hbm,
    /// Host CPU DRAM (1.8 TB on the paper's EPYC host).
    Ddr,
    /// NVMe SSD (effectively unbounded capacity, low bandwidth).
    Ssd,
}

impl Tier {
    /// All tiers, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Hbm, Tier::Ddr, Tier::Ssd];
}

/// Handle to a live allocation in a [`MemoryPool`]: the slab slot in the
/// low 32 bits and the slot's generation at allocation in the high 32, so a
/// handle to a freed slot stays invalid after the slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(u64);

impl AllocId {
    fn new(slot: u32, generation: u32) -> Self {
        AllocId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the size of its live allocation, if any, and how many
/// times it has been freed (wrapping).
#[derive(Debug, Clone, Copy)]
struct Slot {
    bytes: Option<u64>,
    generation: u32,
}

/// A single memory tier with capacity, live-byte and peak-byte accounting.
///
/// Peak tracking is the measurement behind Fig 12 (peak GPU memory usage) and
/// the OOM behaviour behind the Switch-Large results of Figs 10–11.
///
/// Live allocations sit in a slab of slots, and freed slots go on a free
/// list that the next allocation pops first, so `alloc` and `free` are O(1)
/// without hashing and the slab never holds more slots than the peak
/// number of live allocations. Freeing bumps the slot's generation, so a
/// double free or a stale handle to a reused slot is an
/// [`DeviceError::UnknownAllocation`], as is a handle past the slab's end.
///
/// # Example
///
/// ```
/// use pgmoe_device::{MemoryPool, Tier};
///
/// let mut hbm = MemoryPool::new(Tier::Hbm, 1024);
/// let a = hbm.alloc(512)?;
/// let b = hbm.alloc(512)?;
/// assert!(hbm.alloc(1).is_err()); // full
/// hbm.free(a)?;
/// hbm.free(b)?;
/// assert_eq!(hbm.peak_bytes(), 1024);
/// # Ok::<(), pgmoe_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryPool {
    tier: Tier,
    capacity: u64,
    used: u64,
    peak: u64,
    slots: Vec<Slot>,
    /// Indices of the slots without a live allocation, reused last-freed
    /// first.
    vacant: Vec<u32>,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes on `tier`.
    pub fn new(tier: Tier, capacity: u64) -> Self {
        MemoryPool { tier, capacity, used: 0, peak: 0, slots: Vec::new(), vacant: Vec::new() }
    }

    /// The pool's tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of allocated bytes since construction (or the last
    /// [`MemoryPool::reset_peak`]).
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.slots.len() - self.vacant.len()
    }

    /// Resets the peak statistic to the current usage.
    pub fn reset_peak(&mut self) {
        self.peak = self.used;
    }

    /// Allocates `bytes`, returning a handle.
    ///
    /// Zero-byte allocations are valid and return a distinct handle.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] if the pool cannot fit the
    /// request.
    pub fn alloc(&mut self, bytes: u64) -> Result<AllocId> {
        if self.used + bytes > self.capacity {
            return Err(DeviceError::OutOfMemory {
                tier: self.tier,
                requested: bytes,
                available: self.available_bytes(),
                capacity: self.capacity,
            });
        }
        let slot = self.vacant.pop().unwrap_or_else(|| {
            self.slots.push(Slot { bytes: None, generation: 0 });
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live allocations")
        });
        let s = &mut self.slots[slot as usize];
        s.bytes = Some(bytes);
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(AllocId::new(slot, s.generation))
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownAllocation`] on double-free or foreign
    /// handles.
    pub fn free(&mut self, id: AllocId) -> Result<()> {
        let Some(bytes) = self.size_of(id) else {
            return Err(DeviceError::UnknownAllocation { id: id.0 });
        };
        let slot = &mut self.slots[id.slot() as usize];
        slot.bytes = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.vacant.push(id.slot());
        self.used -= bytes;
        Ok(())
    }

    /// Size in bytes of a live allocation, if it exists.
    pub fn size_of(&self, id: AllocId) -> Option<u64> {
        let slot = self.slots.get(id.slot() as usize)?;
        if slot.generation == id.generation() {
            slot.bytes
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_restores_capacity() {
        let mut pool = MemoryPool::new(Tier::Ddr, 100);
        let a = pool.alloc(60).unwrap();
        assert_eq!(pool.used_bytes(), 60);
        pool.free(a).unwrap();
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(pool.peak_bytes(), 60);
        let _ = pool.alloc(100).unwrap();
    }

    #[test]
    fn oom_reports_exact_numbers() {
        let mut pool = MemoryPool::new(Tier::Hbm, 100);
        let _keep = pool.alloc(70).unwrap();
        let err = pool.alloc(40).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                tier: Tier::Hbm,
                requested: 40,
                available: 30,
                capacity: 100
            }
        );
    }

    #[test]
    fn double_free_is_an_error() {
        let unknown = |r: Result<()>| matches!(r, Err(DeviceError::UnknownAllocation { .. }));
        let mut pool = MemoryPool::new(Tier::Ssd, 10);
        let a = pool.alloc(5).unwrap();
        assert_eq!((pool.live_allocations(), pool.size_of(a)), (1, Some(5)));
        pool.free(a).unwrap();
        assert_eq!((pool.live_allocations(), pool.size_of(a)), (0, None));
        assert!(unknown(pool.free(a)));

        // `b` reuses a's slot: the stale `a` must not free it.
        let b = pool.alloc(3).unwrap();
        assert_ne!(a, b);
        assert_eq!((pool.live_allocations(), pool.size_of(a), pool.size_of(b)), (1, None, Some(3)));
        assert!(unknown(pool.free(a)));
        assert_eq!((pool.live_allocations(), pool.size_of(b), pool.used_bytes()), (1, Some(3), 3));

        // An id past this slab's end, from a pool with more slots.
        let mut other = MemoryPool::new(Tier::Ssd, 10);
        let _ = (other.alloc(1).unwrap(), other.alloc(1).unwrap());
        let foreign = other.alloc(1).unwrap();
        assert_eq!(pool.size_of(foreign), None);
        assert!(unknown(pool.free(foreign)));
        assert_eq!((pool.live_allocations(), pool.used_bytes()), (1, 3));

        pool.free(b).unwrap();
        assert_eq!((pool.live_allocations(), pool.size_of(b), pool.used_bytes()), (0, None, 0));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut pool = MemoryPool::new(Tier::Hbm, 100);
        let a = pool.alloc(50).unwrap();
        let b = pool.alloc(30).unwrap();
        pool.free(a).unwrap();
        let _c = pool.alloc(10).unwrap();
        assert_eq!(pool.peak_bytes(), 80);
        pool.free(b).unwrap();
        pool.reset_peak();
        assert_eq!(pool.peak_bytes(), pool.used_bytes());
    }

    #[test]
    fn zero_byte_alloc_is_fine() {
        let mut pool = MemoryPool::new(Tier::Hbm, 0);
        let a = pool.alloc(0).unwrap();
        pool.free(a).unwrap();
    }
}
