//! Typed buffers and memory spaces.
//!
//! Both the host heap and the simulated device memory are a [`MemSpace`]:
//! an arena of typed [`Buffer`]s addressed by [`Handle`]. Keeping the two
//! spaces as *separate* arenas is the substrate for the paper's premise
//! that "the address spaces for GPU and CPU are separate" — nothing can
//! accidentally read across; data moves only through the transfer engine.

use crate::error::VmError;
use crate::value::{Handle, Value};
use openarc_minic::ScalarTy;

/// Typed storage of one allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum BufData {
    /// `int`/`long` elements.
    I64(Vec<i64>),
    /// `float` elements.
    F32(Vec<f32>),
    /// `double` elements.
    F64(Vec<f64>),
}

impl BufData {
    fn new(elem: ScalarTy, len: usize) -> BufData {
        match elem {
            ScalarTy::Int | ScalarTy::Long => BufData::I64(vec![0; len]),
            ScalarTy::Float => BufData::F32(vec![0.0; len]),
            ScalarTy::Double => BufData::F64(vec![0.0; len]),
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            BufData::I64(v) => v.len(),
            BufData::F32(v) => v.len(),
            BufData::F64(v) => v.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One allocation in a memory space.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Element type.
    pub elem: ScalarTy,
    /// The data.
    pub data: BufData,
    /// Debug label (usually the source variable name).
    pub label: String,
}

impl Buffer {
    /// Allocate a zeroed buffer.
    pub fn new(elem: ScalarTy, len: usize, label: impl Into<String>) -> Buffer {
        Buffer {
            elem,
            data: BufData::new(elem, len),
            label: label.into(),
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (drives the PCIe transfer cost model).
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem.size_bytes()
    }

    /// Read element `idx`.
    #[inline]
    pub fn get(&self, idx: u64) -> Result<Value, VmError> {
        let i = idx as usize;
        match &self.data {
            BufData::I64(v) => v.get(i).map(|x| Value::Int(*x)),
            BufData::F32(v) => v.get(i).map(|x| Value::F32(*x)),
            BufData::F64(v) => v.get(i).map(|x| Value::F64(*x)),
        }
        .ok_or_else(|| VmError::OutOfBounds {
            label: self.label.clone(),
            idx,
            len: self.len(),
        })
    }

    /// Write element `idx` (value is coerced to the element type).
    #[inline]
    pub fn set(&mut self, idx: u64, v: Value) -> Result<(), VmError> {
        let i = idx as usize;
        let len = self.len();
        if i >= len {
            return Err(VmError::OutOfBounds {
                label: self.label.clone(),
                idx,
                len,
            });
        }
        match &mut self.data {
            BufData::I64(d) => d[i] = v.as_i64(),
            BufData::F32(d) => d[i] = v.as_f64() as f32,
            BufData::F64(d) => d[i] = v.as_f64(),
        }
        Ok(())
    }

    /// Copy all elements from `src` (types and lengths must match).
    pub fn copy_from(&mut self, src: &Buffer) -> Result<(), VmError> {
        if self.elem != src.elem || self.len() != src.len() {
            return Err(VmError::TransferMismatch {
                src: src.label.clone(),
                dst: self.label.clone(),
            });
        }
        self.data = src.data.clone();
        Ok(())
    }
}

/// An arena of buffers: the host heap or one device's memory.
#[derive(Debug, Default, Clone)]
pub struct MemSpace {
    /// Slot 0 is reserved for the null handle.
    pub(crate) bufs: Vec<Option<Buffer>>,
    /// Total bytes currently allocated.
    allocated_bytes: u64,
    /// High-water mark of allocated bytes.
    pub(crate) peak_bytes: u64,
}

impl MemSpace {
    /// An empty memory space.
    pub fn new() -> MemSpace {
        MemSpace {
            bufs: vec![None],
            allocated_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Allocate a zeroed buffer; returns its handle.
    pub fn alloc(&mut self, elem: ScalarTy, len: usize, label: impl Into<String>) -> Handle {
        self.insert(Buffer::new(elem, len, label))
    }

    /// Insert a pre-built buffer; returns its handle. Identical to
    /// [`MemSpace::alloc`] followed by filling: a caller that already holds
    /// the contents (a clone of another space's buffer, say) publishes them
    /// with a pointer move.
    pub fn insert(&mut self, buf: Buffer) -> Handle {
        self.allocated_bytes += buf.size_bytes();
        self.peak_bytes = self.peak_bytes.max(self.allocated_bytes);
        // Reuse a freed slot if any (handles stay unique per slot lifetime,
        // which is fine: the runtime never holds handles across free).
        if let Some(i) = self.bufs.iter().skip(1).position(|b| b.is_none()) {
            let h = Handle((i + 1) as u32);
            self.bufs[i + 1] = Some(buf);
            h
        } else {
            let h = Handle(self.bufs.len() as u32);
            self.bufs.push(Some(buf));
            h
        }
    }

    /// Free a buffer.
    pub fn free(&mut self, h: Handle) -> Result<(), VmError> {
        let slot = self
            .bufs
            .get_mut(h.0 as usize)
            .ok_or(VmError::BadHandle(h))?;
        match slot.take() {
            Some(b) => {
                self.allocated_bytes -= b.size_bytes();
                Ok(())
            }
            None => Err(VmError::BadHandle(h)),
        }
    }

    /// Borrow a buffer.
    #[inline]
    pub fn get(&self, h: Handle) -> Result<&Buffer, VmError> {
        self.bufs
            .get(h.0 as usize)
            .and_then(|b| b.as_ref())
            .ok_or(VmError::BadHandle(h))
    }

    /// Mutably borrow a buffer.
    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Result<&mut Buffer, VmError> {
        self.bufs
            .get_mut(h.0 as usize)
            .and_then(|b| b.as_mut())
            .ok_or(VmError::BadHandle(h))
    }

    /// Read one element.
    #[inline]
    pub fn load(&self, h: Handle, idx: u64) -> Result<Value, VmError> {
        self.get(h)?.get(idx)
    }

    /// Write one element.
    #[inline]
    pub fn store(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        self.get_mut(h)?.set(idx, v)
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Peak bytes ever allocated.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.bufs.iter().filter(|b| b.is_some()).count()
    }

    /// The raw slot table, `None` marking the reserved null slot and freed
    /// slots. Slot indices *are* handle values, so a serialized snapshot of
    /// this table preserves every outstanding [`Handle`] — which is what
    /// the on-disk artifact cache relies on when it reconstructs a final
    /// memory image whose globals still point into it.
    pub fn slots(&self) -> &[Option<Buffer>] {
        &self.bufs
    }

    /// Rebuild a memory space from a slot snapshot taken via
    /// [`MemSpace::slots`]. Live bytes are recomputed from the snapshot;
    /// `peak_bytes` restores the high-water mark (it is not derivable from
    /// the final state).
    pub fn restore(slots: Vec<Option<Buffer>>, peak_bytes: u64) -> MemSpace {
        let allocated_bytes = slots.iter().flatten().map(|b| b.size_bytes()).sum();
        let bufs = if slots.is_empty() { vec![None] } else { slots };
        MemSpace {
            bufs,
            allocated_bytes,
            peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store_roundtrip() {
        let mut m = MemSpace::new();
        let h = m.alloc(ScalarTy::Double, 4, "a");
        m.store(h, 2, Value::F64(3.5)).unwrap();
        assert_eq!(m.load(h, 2).unwrap(), Value::F64(3.5));
        assert_eq!(m.load(h, 0).unwrap(), Value::F64(0.0));
    }

    #[test]
    fn store_coerces_to_elem_type() {
        let mut m = MemSpace::new();
        let h = m.alloc(ScalarTy::Float, 1, "f");
        m.store(h, 0, Value::F64(1.1)).unwrap();
        assert_eq!(m.load(h, 0).unwrap(), Value::F32(1.1f64 as f32));
        let h2 = m.alloc(ScalarTy::Int, 1, "i");
        m.store(h2, 0, Value::F64(2.7)).unwrap();
        assert_eq!(m.load(h2, 0).unwrap(), Value::Int(2));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = MemSpace::new();
        let h = m.alloc(ScalarTy::Int, 2, "x");
        assert!(matches!(m.load(h, 2), Err(VmError::OutOfBounds { .. })));
        assert!(matches!(
            m.store(h, 99, Value::Int(0)),
            Err(VmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn free_then_use_detected() {
        let mut m = MemSpace::new();
        let h = m.alloc(ScalarTy::Int, 2, "x");
        m.free(h).unwrap();
        assert!(matches!(m.load(h, 0), Err(VmError::BadHandle(_))));
        assert!(matches!(m.free(h), Err(VmError::BadHandle(_))));
    }

    #[test]
    fn null_handle_invalid() {
        let m = MemSpace::new();
        assert!(matches!(
            m.load(Handle::NULL, 0),
            Err(VmError::BadHandle(_))
        ));
    }

    #[test]
    fn byte_accounting() {
        let mut m = MemSpace::new();
        let h1 = m.alloc(ScalarTy::Double, 10, "a"); // 80 bytes
        let _h2 = m.alloc(ScalarTy::Int, 4, "b"); // 16 bytes
        assert_eq!(m.allocated_bytes(), 96);
        assert_eq!(m.peak_bytes(), 96);
        m.free(h1).unwrap();
        assert_eq!(m.allocated_bytes(), 16);
        assert_eq!(m.peak_bytes(), 96);
        assert_eq!(m.live_buffers(), 1);
    }

    #[test]
    fn slot_reuse_after_free() {
        let mut m = MemSpace::new();
        let h1 = m.alloc(ScalarTy::Int, 1, "a");
        m.free(h1).unwrap();
        let h2 = m.alloc(ScalarTy::Int, 1, "b");
        assert_eq!(h1, h2); // slot reused
        assert_eq!(m.get(h2).unwrap().label, "b");
    }

    #[test]
    fn copy_from_checks_shape() {
        let mut a = Buffer::new(ScalarTy::Double, 3, "a");
        let b = Buffer::new(ScalarTy::Double, 3, "b");
        assert!(a.copy_from(&b).is_ok());
        let c = Buffer::new(ScalarTy::Float, 3, "c");
        assert!(matches!(
            a.copy_from(&c),
            Err(VmError::TransferMismatch { .. })
        ));
        let d = Buffer::new(ScalarTy::Double, 4, "d");
        assert!(matches!(
            a.copy_from(&d),
            Err(VmError::TransferMismatch { .. })
        ));
    }
}
