//! The simulated accelerator device: its own address space and the
//! kernel-visible execution environment.

use crate::race::{AccessKind, RaceDetector};
use openarc_minic::ScalarTy;
use openarc_vm::{Env, Handle, MemSpace, Value, VmError};

/// Identifier of one simulated device within a [`DeviceSet`].
///
/// Device 0 ([`DeviceId::PRIMARY`]) is the device every single-device
/// code path talks to; the multi-device APIs thread an explicit id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The default device: what every pre-multi-device call site means.
    pub const PRIMARY: DeviceId = DeviceId(0);
}

openarc_trace::wire_record!(DeviceId(id));

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A simulated GPU: a separate memory space plus race-detection switch.
#[derive(Debug, Default)]
pub struct Device {
    /// Device memory — disjoint from the host [`MemSpace`].
    pub mem: MemSpace,
    /// When true, kernel launches record conflicting accesses.
    pub race_detect: bool,
}

impl Device {
    /// A fresh device with race detection enabled (the simulator is our
    /// ground-truth oracle, so it defaults on; benches can disable it).
    pub fn new() -> Device {
        Device {
            mem: MemSpace::new(),
            race_detect: true,
        }
    }
}

/// N simulated devices, each with its own memory space and race-detection
/// switch. Device 0 is the primary device that all single-device code
/// paths address; a DAG-scheduled run fans launches across the rest.
#[derive(Debug)]
pub struct DeviceSet {
    devices: Vec<Device>,
}

impl DeviceSet {
    /// `n` fresh devices (race detection on). `n` is clamped to at least 1
    /// — an empty device set has no meaning for the runtime.
    pub fn new(n: usize) -> DeviceSet {
        DeviceSet {
            devices: (0..n.max(1)).map(|_| Device::new()).collect(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: a [`DeviceSet`] holds at least one device.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All valid ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.devices.len() as u32).map(DeviceId)
    }

    /// Device `id`. Panics on an out-of-range id: the runtime assigns ids
    /// from a plan bounded by `len()`, so a bad id is a scheduler bug.
    pub fn get(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Device `id`, mutably.
    pub fn get_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0 as usize]
    }

    /// Toggle race detection on every device.
    pub fn set_race_detect(&mut self, on: bool) {
        for d in &mut self.devices {
            d.race_detect = on;
        }
    }
}

impl Default for DeviceSet {
    fn default() -> DeviceSet {
        DeviceSet::new(1)
    }
}

/// The [`Env`] a simulated GPU thread executes against. Kernels receive all
/// data through parameters (CUDA-style), so global-slot access is an
/// internal error.
pub struct DeviceEnv<'a> {
    mem: &'a mut MemSpace,
    races: Option<&'a mut RaceDetector>,
    /// Id of the thread currently being stepped (set by the executor).
    pub current_tid: u64,
}

impl<'a> DeviceEnv<'a> {
    /// Wrap device memory (and optionally a race detector) for one launch.
    pub fn new(mem: &'a mut MemSpace, races: Option<&'a mut RaceDetector>) -> DeviceEnv<'a> {
        DeviceEnv {
            mem,
            races,
            current_tid: 0,
        }
    }
}

impl Env for DeviceEnv<'_> {
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError> {
        Err(VmError::Internal(format!(
            "kernel accessed host global slot {slot}; kernels must receive data via parameters"
        )))
    }

    fn store_global(&mut self, slot: u16, _v: Value) -> Result<(), VmError> {
        Err(VmError::Internal(format!(
            "kernel wrote host global slot {slot}; kernels must receive data via parameters"
        )))
    }

    fn load_elem(&mut self, h: Handle, idx: u64) -> Result<Value, VmError> {
        let buf = self.mem.get(h)?;
        if let Some(r) = self.races.as_deref_mut() {
            r.record(
                h,
                &buf.label,
                buf.len(),
                idx,
                self.current_tid,
                AccessKind::Read,
            );
        }
        buf.get(idx)
    }

    fn store_elem(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        let buf = self.mem.get_mut(h)?;
        if let Some(r) = self.races.as_deref_mut() {
            r.record(
                h,
                &buf.label,
                buf.len(),
                idx,
                self.current_tid,
                AccessKind::Write,
            );
        }
        buf.set(idx, v)
    }

    fn malloc(&mut self, _elem: ScalarTy, _len: u64, _label: &str) -> Result<Handle, VmError> {
        Err(VmError::Internal(
            "kernels cannot allocate device memory".into(),
        ))
    }

    fn free(&mut self, _h: Handle) -> Result<(), VmError> {
        Err(VmError::Internal(
            "kernels cannot free device memory".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_env_tracks_accesses() {
        let mut mem = MemSpace::new();
        let h = mem.alloc(ScalarTy::Double, 4, "a");
        let mut det = RaceDetector::new();
        let mut env = DeviceEnv::new(&mut mem, Some(&mut det));
        env.current_tid = 0;
        env.store_elem(h, 0, Value::F64(1.0)).unwrap();
        env.current_tid = 1;
        env.store_elem(h, 0, Value::F64(2.0)).unwrap();
        assert!(det.any());
        assert_eq!(det.reports()[0].label, "a");
    }

    #[test]
    fn device_env_without_detector_still_works() {
        let mut mem = MemSpace::new();
        let h = mem.alloc(ScalarTy::Int, 2, "x");
        let mut env = DeviceEnv::new(&mut mem, None);
        env.store_elem(h, 1, Value::Int(9)).unwrap();
        assert_eq!(env.load_elem(h, 1).unwrap(), Value::Int(9));
    }

    #[test]
    fn kernel_global_access_is_internal_error() {
        let mut mem = MemSpace::new();
        let mut env = DeviceEnv::new(&mut mem, None);
        assert!(env.load_global(0).is_err());
        assert!(env.store_global(0, Value::Int(1)).is_err());
        assert!(env.malloc(ScalarTy::Int, 4, "x").is_err());
    }
}
