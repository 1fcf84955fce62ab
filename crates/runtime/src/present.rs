//! The OpenACC present table: which host allocations currently have a
//! device mirror, with structured-region reference counting.

use openarc_vm::{Handle, VmError};
use std::collections::HashMap;

/// One host→device mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Device-side buffer.
    pub dev: Handle,
    /// Structured data regions currently holding this mapping alive.
    pub refcount: u32,
    /// Source variable label (for reports).
    pub label: String,
}

/// Present table keyed by host buffer handle.
#[derive(Debug, Clone, Default)]
pub struct PresentTable {
    map: HashMap<Handle, Mapping>,
}

impl PresentTable {
    /// Empty table.
    pub fn new() -> PresentTable {
        PresentTable::default()
    }

    /// Is `host` present on the device?
    pub fn contains(&self, host: Handle) -> bool {
        self.map.contains_key(&host)
    }

    /// Device handle for `host`, if present.
    pub fn device_of(&self, host: Handle) -> Option<Handle> {
        self.map.get(&host).map(|m| m.dev)
    }

    /// Record a new mapping with refcount 1. Errors if already present
    /// (callers must check [`PresentTable::contains`] first and bump).
    pub fn insert(
        &mut self,
        host: Handle,
        dev: Handle,
        label: impl Into<String>,
    ) -> Result<(), VmError> {
        if self.map.contains_key(&host) {
            return Err(VmError::Internal(format!(
                "{host} already present on device"
            )));
        }
        self.map.insert(
            host,
            Mapping {
                dev,
                refcount: 1,
                label: label.into(),
            },
        );
        Ok(())
    }

    /// Bump the refcount of an existing mapping (nested `present_or_*`).
    pub fn retain(&mut self, host: Handle) -> Result<(), VmError> {
        match self.map.get_mut(&host) {
            Some(m) => {
                m.refcount += 1;
                Ok(())
            }
            None => Err(VmError::Internal(format!("{host} not present on device"))),
        }
    }

    /// Drop one reference. Returns the device handle to free when the
    /// refcount reaches zero.
    pub fn release(&mut self, host: Handle) -> Result<Option<Handle>, VmError> {
        match self.map.get_mut(&host) {
            Some(m) => {
                m.refcount -= 1;
                if m.refcount == 0 {
                    let dev = m.dev;
                    self.map.remove(&host);
                    Ok(Some(dev))
                } else {
                    Ok(None)
                }
            }
            None => Err(VmError::Internal(format!("{host} not present on device"))),
        }
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over (host, mapping).
    pub fn iter(&self) -> impl Iterator<Item = (&Handle, &Mapping)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Handle = Handle(1);
    const D: Handle = Handle(2);

    #[test]
    fn insert_lookup_release() {
        let mut t = PresentTable::new();
        assert!(!t.contains(H));
        t.insert(H, D, "a").unwrap();
        assert!(t.contains(H));
        assert_eq!(t.device_of(H), Some(D));
        assert_eq!(t.release(H).unwrap(), Some(D));
        assert!(t.is_empty());
    }

    #[test]
    fn refcounting_nested_regions() {
        let mut t = PresentTable::new();
        t.insert(H, D, "a").unwrap();
        t.retain(H).unwrap();
        assert_eq!(t.release(H).unwrap(), None);
        assert!(t.contains(H));
        assert_eq!(t.release(H).unwrap(), Some(D));
        assert!(!t.contains(H));
    }

    #[test]
    fn double_insert_rejected() {
        let mut t = PresentTable::new();
        t.insert(H, D, "a").unwrap();
        assert!(t.insert(H, Handle(9), "a").is_err());
    }

    #[test]
    fn release_absent_rejected() {
        let mut t = PresentTable::new();
        assert!(t.release(H).is_err());
        assert!(t.retain(H).is_err());
    }
}
