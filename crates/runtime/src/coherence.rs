//! The runtime coherence tracker of §III-B.
//!
//! Each variable of interest (array / malloc'd region shared between CPU
//! and GPU) carries one of three states **per device**: `notstale`,
//! `maystale`, `stale` — tracked at whole-allocation granularity exactly as
//! the paper prescribes ("we track coherence status at the granularity of
//! entire array or memory region allocated by a malloc call").
//!
//! State machine (paper, §III-B):
//! * all variables start **not-stale** on both devices until the first
//!   write;
//! * a write on one device sets the *other* device's state to **stale**
//!   (or to **may-stale**/**not-stale** when the compiler proved the remote
//!   copy may-dead/must-dead — `reset_status`);
//! * a transfer sets the destination **not-stale**; a local total
//!   overwrite does the same;
//! * deallocation sets the state **stale**; a reduction kernel whose final
//!   value lands on the CPU leaves the GPU copy **stale**.

use openarc_gpusim::DeviceId;
use openarc_trace::St;
use openarc_vm::Handle;
use std::collections::HashMap;

/// Which copy of the data, in the paper's two-sided vocabulary: the form
/// the instrumented `check_read`/`check_write` calls are lowered with
/// (and the one the artifact cache encodes). The tracker itself speaks
/// [`Loc`]; [`DevSide::loc`] maps a side onto it, `Gpu` being the primary
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevSide {
    /// Host CPU copy.
    Cpu,
    /// Device (GPU) copy.
    Gpu,
}

impl DevSide {
    /// Both sides, in code order.
    pub const ALL: [DevSide; 2] = [DevSide::Cpu, DevSide::Gpu];

    /// The opposite side.
    pub fn other(self) -> DevSide {
        match self {
            DevSide::Cpu => DevSide::Gpu,
            DevSide::Gpu => DevSide::Cpu,
        }
    }

    /// The location this side names: `Gpu` is the primary device.
    pub fn loc(self) -> Loc {
        match self {
            DevSide::Cpu => Loc::Cpu,
            DevSide::Gpu => Loc::Dev(DeviceId::PRIMARY),
        }
    }
}

openarc_trace::wire_codes!(DevSide);

/// One location a copy of the data can live at: the host, or one of N
/// simulated devices. The §III-B state machine "already keys per device
/// conceptually" — this makes the device dimension real.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// Host CPU copy.
    Cpu,
    /// The copy on one device.
    Dev(DeviceId),
}

/// Diagnosis of a read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadDiag {
    /// Fine.
    Ok,
    /// Local copy stale → a transfer is missing.
    Missing,
    /// Local copy may-stale → transfer needed only if the written part
    /// does not cover the reads (user must verify).
    MayMissing,
}

/// Diagnosis of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferDiag {
    /// Source-side verdict: copying from a stale source spreads bad data.
    pub incorrect: Option<bool>,
    /// Destination-side verdict: `Some(true)` = redundant,
    /// `Some(false)` = may-redundant, `None` = necessary.
    pub redundant: Option<bool>,
}

/// Per-variable coherence record: one state for the host copy plus one
/// per device.
#[derive(Debug, Clone)]
pub struct VarState {
    /// CPU-side state.
    pub cpu: St,
    /// Per-device states, indexed by [`DeviceId`].
    gpus: Vec<St>,
    /// Variable label for reports.
    pub label: String,
}

impl Default for VarState {
    fn default() -> VarState {
        VarState {
            cpu: St::NotStale,
            gpus: vec![St::NotStale],
            label: String::new(),
        }
    }
}

impl VarState {
    /// Device `d`'s state.
    pub fn gpu_on(&self, d: DeviceId) -> St {
        self.gpus[d.0 as usize]
    }

    /// All device states, indexed by [`DeviceId`].
    pub fn gpus(&self) -> &[St] {
        &self.gpus
    }

    /// State at `loc`.
    pub fn at(&self, loc: Loc) -> St {
        match loc {
            Loc::Cpu => self.cpu,
            Loc::Dev(d) => self.gpus[d.0 as usize],
        }
    }

    fn set_at(&mut self, loc: Loc, st: St) {
        match loc {
            Loc::Cpu => self.cpu = st,
            Loc::Dev(d) => self.gpus[d.0 as usize] = st,
        }
    }

    /// Every location, in `Cpu`, `Dev(0)`, `Dev(1)`… order.
    fn locs(&self) -> impl Iterator<Item = Loc> {
        std::iter::once(Loc::Cpu).chain((0..self.gpus.len() as u32).map(|d| Loc::Dev(DeviceId(d))))
    }
}

/// The coherence tracker, keyed by host allocation handle.
///
/// ```
/// use openarc_gpusim::DeviceId;
/// use openarc_runtime::{Coherence, Loc, ReadDiag};
/// use openarc_vm::Handle;
/// let gpu = Loc::Dev(DeviceId::PRIMARY);
/// let mut c = Coherence::new(true);
/// let h = Handle(1);
/// c.track(h, "a");
/// c.on_write_at(h, gpu, false);                            // kernel writes a
/// assert_eq!(c.check_read_at(h, Loc::Cpu), ReadDiag::Missing);
/// let diag = c.on_transfer_between(h, gpu, Loc::Cpu);      // copy it back
/// assert_eq!(diag.redundant, None);                        // the copy was needed
/// assert_eq!(c.check_read_at(h, Loc::Cpu), ReadDiag::Ok);
/// let diag = c.on_transfer_between(h, gpu, Loc::Cpu);      // copy it again
/// assert_eq!(diag.redundant, Some(true));                  // now it's redundant
/// ```
#[derive(Debug, Clone)]
pub struct Coherence {
    /// Serves only point lookups by handle; never iterated, so its order never reaches output.
    vars: HashMap<Handle, VarState>,
    n_devices: usize,
    /// Master switch: when off (production runs), all checks return Ok and
    /// no state is maintained — used to measure the Figure 4 overhead.
    pub enabled: bool,
}

impl Default for Coherence {
    fn default() -> Coherence {
        Coherence::new(false)
    }
}

impl Coherence {
    /// A single-device tracker.
    pub fn new(enabled: bool) -> Coherence {
        Coherence::with_devices(enabled, 1)
    }

    /// A tracker over `n_devices` simulated devices (clamped to ≥ 1).
    pub fn with_devices(enabled: bool, n_devices: usize) -> Coherence {
        Coherence {
            vars: HashMap::new(),
            n_devices: n_devices.max(1),
            enabled,
        }
    }

    /// Number of devices tracked per variable.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Begin tracking `h` (first device mapping). Every location starts
    /// not-stale.
    pub fn track(&mut self, h: Handle, label: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let n = self.n_devices;
        self.vars.entry(h).or_insert_with(|| VarState {
            cpu: St::NotStale,
            gpus: vec![St::NotStale; n],
            label: label.into(),
        });
    }

    /// Stop tracking (host free).
    pub fn untrack(&mut self, h: Handle) {
        self.vars.remove(&h);
    }

    /// Current state, if tracked.
    pub fn state(&self, h: Handle) -> Option<&VarState> {
        self.vars.get(&h)
    }

    /// `check_read`: diagnose a read of the copy at `loc`.
    pub fn check_read_at(&self, h: Handle, loc: Loc) -> ReadDiag {
        if !self.enabled {
            return ReadDiag::Ok;
        }
        match self.vars.get(&h).map(|v| v.at(loc)) {
            Some(St::Stale) => ReadDiag::Missing,
            Some(St::MayStale) => ReadDiag::MayMissing,
            _ => ReadDiag::Ok,
        }
    }

    /// `check_write`: diagnose and apply a write at `loc`. Returns the
    /// diagnosis of the *local* copy before the write (a stale copy being
    /// partially overwritten is the paper's may-missing case). Every *other*
    /// location's copy goes stale — with one device this is exactly the
    /// paper's two-sided rule; with N devices a write anywhere stales the
    /// N remaining copies.
    pub fn on_write_at(&mut self, h: Handle, loc: Loc, total: bool) -> ReadDiag {
        if !self.enabled {
            return ReadDiag::Ok;
        }
        let Some(v) = self.vars.get_mut(&h) else {
            return ReadDiag::Ok;
        };
        let before = v.at(loc);
        let diag = match before {
            St::Stale if !total => ReadDiag::MayMissing,
            _ => ReadDiag::Ok,
        };
        // Local copy: a total overwrite is fresh; a partial overwrite of a
        // stale copy leaves it may-stale.
        let local_after = if total {
            St::NotStale
        } else {
            match before {
                St::Stale | St::MayStale => St::MayStale,
                St::NotStale => St::NotStale,
            }
        };
        // Remote copies go stale (reset_status may soften this afterwards).
        let locs: Vec<Loc> = v.locs().collect();
        for other in locs {
            if other != loc {
                v.set_at(other, St::Stale);
            }
        }
        v.set_at(loc, local_after);
        diag
    }

    /// Diagnose and apply a transfer from the copy at `src` into the copy
    /// at `dst` — host↔device in either direction, or device↔device.
    /// The incorrect verdict reads the source state, the redundant verdict
    /// the destination state, and the destination becomes not-stale.
    pub fn on_transfer_between(&mut self, h: Handle, src: Loc, dst: Loc) -> XferDiag {
        if !self.enabled {
            return XferDiag {
                incorrect: None,
                redundant: None,
            };
        }
        let Some(v) = self.vars.get_mut(&h) else {
            return XferDiag {
                incorrect: None,
                redundant: None,
            };
        };
        let src_state = v.at(src);
        let dst_state = v.at(dst);
        let incorrect = match src_state {
            St::Stale => Some(true),
            St::MayStale => Some(false),
            St::NotStale => None,
        };
        let redundant = match dst_state {
            St::NotStale => Some(true),
            St::MayStale => Some(false),
            St::Stale => None,
        };
        v.set_at(dst, St::NotStale);
        XferDiag {
            incorrect,
            redundant,
        }
    }

    /// `reset_status`: compiler-directed state override of the copy at
    /// `loc` (dead variables, deallocation, CPU-final reductions).
    pub fn reset_status_at(&mut self, h: Handle, loc: Loc, st: St) {
        if !self.enabled {
            return;
        }
        if let Some(v) = self.vars.get_mut(&h) {
            v.set_at(loc, st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Handle = Handle(5);

    /// `ALL` is the side's code table: the match is exhaustive, so a new
    /// side does not compile here until it is given a code.
    #[test]
    fn dev_side_all_is_its_code_table() {
        let code = |s| match s {
            DevSide::Cpu => 0,
            DevSide::Gpu => 1,
        };
        for (i, s) in DevSide::ALL.into_iter().enumerate() {
            assert_eq!(code(s), i, "{s:?}");
        }
    }
    const CPU: Loc = Loc::Cpu;
    const GPU: Loc = Loc::Dev(DeviceId::PRIMARY);

    fn tracked() -> Coherence {
        let mut c = Coherence::new(true);
        c.track(H, "a");
        c
    }

    #[test]
    fn starts_not_stale_both_sides() {
        let c = tracked();
        let v = c.state(H).unwrap();
        assert_eq!(v.cpu, St::NotStale);
        assert_eq!(v.gpu_on(DeviceId::PRIMARY), St::NotStale);
        assert_eq!(c.check_read_at(H, CPU), ReadDiag::Ok);
    }

    #[test]
    fn write_stales_remote() {
        let mut c = tracked();
        c.on_write_at(H, GPU, false);
        assert_eq!(c.state(H).unwrap().cpu, St::Stale);
        assert_eq!(c.check_read_at(H, CPU), ReadDiag::Missing);
        assert_eq!(c.check_read_at(H, GPU), ReadDiag::Ok);
    }

    #[test]
    fn transfer_clears_staleness() {
        let mut c = tracked();
        c.on_write_at(H, GPU, false);
        let d = c.on_transfer_between(H, GPU, CPU);
        assert_eq!(d.redundant, None, "transfer was needed");
        assert_eq!(d.incorrect, None, "source was fresh");
        assert_eq!(c.check_read_at(H, CPU), ReadDiag::Ok);
    }

    #[test]
    fn transfer_to_fresh_copy_is_redundant() {
        let mut c = tracked();
        let d = c.on_transfer_between(H, CPU, GPU);
        assert_eq!(d.redundant, Some(true));
    }

    #[test]
    fn transfer_from_stale_source_is_incorrect() {
        let mut c = tracked();
        c.on_write_at(H, GPU, false); // CPU copy stale now
        let d = c.on_transfer_between(H, CPU, GPU); // CPU → GPU copies stale data
        assert_eq!(d.incorrect, Some(true));
    }

    #[test]
    fn partial_overwrite_of_stale_copy_is_may_missing() {
        let mut c = tracked();
        c.on_write_at(H, GPU, false); // CPU stale
        let diag = c.on_write_at(H, CPU, false); // partial CPU write
        assert_eq!(diag, ReadDiag::MayMissing);
        assert_eq!(c.state(H).unwrap().cpu, St::MayStale);
        assert_eq!(c.check_read_at(H, CPU), ReadDiag::MayMissing);
    }

    #[test]
    fn total_overwrite_refreshes_local() {
        let mut c = tracked();
        c.on_write_at(H, GPU, false); // CPU stale
        let diag = c.on_write_at(H, CPU, true);
        assert_eq!(diag, ReadDiag::Ok);
        assert_eq!(c.state(H).unwrap().cpu, St::NotStale);
        // And the GPU copy went stale in turn.
        assert_eq!(c.state(H).unwrap().gpu_on(DeviceId::PRIMARY), St::Stale);
    }

    #[test]
    fn reset_status_overrides() {
        let mut c = tracked();
        c.on_write_at(H, CPU, true); // GPU stale
                                     // Compiler proved GPU copy must-dead → mark not-stale so the next
                                     // transfer to it is flagged redundant.
        c.reset_status_at(H, GPU, St::NotStale);
        let d = c.on_transfer_between(H, CPU, GPU);
        assert_eq!(d.redundant, Some(true));
    }

    #[test]
    fn may_dead_gives_may_redundant() {
        let mut c = tracked();
        c.on_write_at(H, CPU, true); // GPU stale
        c.reset_status_at(H, GPU, St::MayStale);
        let d = c.on_transfer_between(H, CPU, GPU);
        assert_eq!(d.redundant, Some(false), "may-redundant");
    }

    #[test]
    fn disabled_tracker_is_silent() {
        let mut c = Coherence::new(false);
        c.track(H, "a");
        c.on_write_at(H, GPU, false);
        assert_eq!(c.check_read_at(H, CPU), ReadDiag::Ok);
        assert!(c.state(H).is_none());
    }

    #[test]
    fn untrack_forgets() {
        let mut c = tracked();
        c.untrack(H);
        assert!(c.state(H).is_none());
    }
}
