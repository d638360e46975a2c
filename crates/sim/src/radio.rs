//! The re-customizable radio half of a [`crate::SimWorld`].
//!
//! [`Radio::customize`] derives every radio-dependent table — sensing
//! neighbor lists, path-gain storage, truncation cutoffs, near-field PU
//! lists — from an immutable [`Topology`] and a [`RadioParams`]. Each
//! table is a *stage* stamped with the bit-pattern of exactly the inputs
//! it reads; [`Radio::recustomize`] re-derives only the stages whose
//! fingerprints changed and `Arc`-shares the rest, which is what makes a
//! radio-only sweep point cheap (the metric-customization phase of the
//! CCH-style split, see `DESIGN.md` §9).
//!
//! Every stage is a pure function of `(Topology, fingerprinted inputs)`,
//! so a reused stage is bit-identical to a freshly built one — the
//! equivalence the customize-vs-rebuild suite pins.

use crate::config::InterferenceModel;
use crate::topology::Topology;
use crate::world::WorldError;
use crn_geometry::Point;
use crn_interference::cutoff::{CutoffTable, FarFieldBound};
use crn_interference::{path_gain, path_gain_sq, PhyParams};
use std::sync::Arc;

/// The radio-layer inputs of [`Radio::customize`]: everything about a
/// world that is *not* deployment structure.
///
/// The chainable setters make sweep deltas terse:
///
/// ```
/// use crn_interference::PhyParams;
/// use crn_sim::RadioParams;
///
/// let base = RadioParams::new(PhyParams::paper_simulation_defaults()).sense_range(25.0);
/// let wider = base.su_sense_range(30.0);
/// assert_eq!(wider.pu_sense_range, 25.0);
/// assert_eq!(wider.su_sense_range, 30.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioParams {
    /// Physical-layer parameters.
    pub phy: PhyParams,
    /// Range within which PU activity blocks or aborts an SU.
    pub pu_sense_range: f64,
    /// Range of SU↔SU carrier sensing.
    pub su_sense_range: f64,
    /// How path gains are materialized: dense `Exact` tables or sparse
    /// `Truncated` near-field lists with a certified error bound.
    pub interference: InterferenceModel,
}

impl RadioParams {
    /// Radio parameters with both sensing ranges at the SU radius `r`
    /// (the minimum customization accepts) and dense exact gains.
    #[must_use]
    pub fn new(phy: PhyParams) -> Self {
        let r = phy.su_radius();
        Self {
            phy,
            pu_sense_range: r,
            su_sense_range: r,
            interference: InterferenceModel::Exact,
        }
    }

    /// Returns a copy with both sensing ranges set to `range`.
    #[must_use]
    pub fn sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = range;
        self.su_sense_range = range;
        self
    }

    /// Returns a copy with the PU sensing range set.
    #[must_use]
    pub fn pu_sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = range;
        self
    }

    /// Returns a copy with the SU sensing range set.
    #[must_use]
    pub fn su_sense_range(mut self, range: f64) -> Self {
        self.su_sense_range = range;
        self
    }

    /// Returns a copy with the interference model set.
    #[must_use]
    pub fn interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Returns a copy with the physical parameters replaced.
    #[must_use]
    pub fn phy(mut self, phy: PhyParams) -> Self {
        self.phy = phy;
        self
    }
}

/// Carrier-sensing neighbor lists; inputs: both sensing ranges.
#[derive(Debug)]
struct SenseStage {
    /// `(pu_sense_range, su_sense_range)` bit patterns.
    key: (u64, u64),
    /// For each SU, the other SUs within its SU sensing range (sorted).
    su_hears_su: Vec<Vec<u32>>,
    /// For each PU, the SUs whose PU sensing range contains it (sorted).
    pu_fanout: Vec<Vec<u32>>,
    /// Word offsets of a carrier-sense bitmap with one bit per
    /// `pu_fanout` entry: PU `k` owns words
    /// `fanout_word[k]..fanout_word[k + 1]`, bit `j` of its segment
    /// standing for `pu_fanout[k][j]`.
    fanout_word: Vec<u32>,
    /// Row offsets of `su_pus`, one row per SU.
    su_pu_off: Vec<u32>,
    /// The SU-major transpose of `pu_fanout`: row `su` lists each
    /// `(pu, position of su in pu_fanout[pu])`, PUs ascending.
    su_pus: Vec<(u32, u32)>,
}

/// Dense path-gain tables (`Exact` model); input: `alpha` only — the
/// engine multiplies by transmit powers at run time, so a power-only
/// re-customization reuses these wholesale.
#[derive(Debug)]
struct DenseStage {
    /// `alpha` bit pattern.
    key: u64,
    slots: usize,
    /// PU → receiver gains, `pu * slots + slot`.
    pu_gain: Vec<f64>,
    /// SU → receiver gains, `su * slots + slot`.
    su_gain: Vec<f64>,
}

/// Per-slot weakest-link *gain* floor (no power factor, so the stage
/// survives power sweeps); input: `alpha`.
#[derive(Debug)]
struct GminStage {
    /// `alpha` bit pattern.
    key: u64,
    /// `min` over the slot's children of `path_gain(link, alpha)`.
    g_min: Vec<f64>,
}

/// Fingerprint of everything the truncation *structure* (cutoff radii,
/// and with them the near-field membership lists) reads. Transmit powers
/// are deliberately absent: the cutoff budget is computed in normalized
/// gain space (`0.5·ε·g_min/η_s`), so the SU-side cutoffs are
/// power-invariant by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StructureKey {
    alpha: u64,
    su_radius: u64,
    su_sense: u64,
    epsilon: u64,
    eta_s: u64,
}

/// Per-slot truncation cutoff radii.
#[derive(Debug)]
struct CutoffStage {
    key: StructureKey,
    cutoff: Vec<f64>,
}

/// Transmitter-major SU→slot CSR of near-field gains.
#[derive(Debug)]
struct SuCsrStage {
    key: StructureKey,
    /// Row offsets, length `n + 1`.
    su_off: Vec<u32>,
    /// Receiver slots per SU row, ascending.
    su_slot: Vec<u32>,
    /// Gains aligned with `su_slot`.
    su_gain: Vec<f64>,
}

/// The budget-independent part of the near-field PU lists, plus a pulled
/// far-field prefix deep enough for the budgets it was built under.
///
/// Per slot: the PUs inside the cutoff (`base_*`, ids ascending) and a
/// certified upper bound `bound[s]` on the summed far-field gain (see
/// [`PuCells::near_and_far_bound`]). A slot whose bound exceeds its
/// threshold also stores the exact fallback: the nearest far-field PUs
/// pulled to meet the PU-side budget (`ext_*`, in pull order) and the
/// *exclusion levels* `level[k]` — the exact summed far-field gain left
/// outside after pulling `k` PUs. A looser budget re-derives its pull
/// count by a pure `partition_point` over the stored levels (or settles
/// on the bound), bit-identical to a fresh build; a tighter budget that
/// needs a deeper prefix, or levels a slot never stored, rebuilds the
/// structure.
#[derive(Debug)]
struct PuStructure {
    key: StructureKey,
    base_off: Vec<u32>,
    base_id: Vec<u32>,
    base_gain: Vec<f64>,
    /// Per slot: certified upper bound on the far-field gain sum.
    bound: Vec<f64>,
    ext_off: Vec<u32>,
    ext_id: Vec<u32>,
    ext_gain: Vec<f64>,
    /// Row offsets into `level`; row `s` is empty on a slot its bound
    /// settled, else it has `ext` row length + 1 values.
    lvl_off: Vec<u32>,
    level: Vec<f64>,
    /// Work done by the build (not part of the tables).
    #[cfg_attr(not(test), allow(dead_code))]
    work: PuWork,
}

/// Deterministic work counters of one [`build_pu_structure`] call.
#[derive(Clone, Copy, Debug, Default)]
struct PuWork {
    /// Slots whose bound exceeded the threshold (the exact scan ran).
    fallback_slots: usize,
    /// Single-PU `path_gain_sq` evaluations: near lists, exact zones of
    /// the bound and fallback scans.
    exact_evals: u64,
}

impl PuStructure {
    fn levels(&self, s: usize) -> &[f64] {
        &self.level[self.lvl_off[s] as usize..self.lvl_off[s + 1] as usize]
    }

    fn base(&self, s: usize) -> (&[u32], &[f64]) {
        let lo = self.base_off[s] as usize;
        let hi = self.base_off[s + 1] as usize;
        (&self.base_id[lo..hi], &self.base_gain[lo..hi])
    }

    fn ext(&self, s: usize) -> (&[u32], &[f64]) {
        let lo = self.ext_off[s] as usize;
        let hi = self.ext_off[s + 1] as usize;
        (&self.ext_id[lo..hi], &self.ext_gain[lo..hi])
    }

    fn bytes(&self) -> usize {
        (self.base_off.len() + self.base_id.len() + self.ext_off.len() + self.ext_id.len()) * 4
            + (self.base_gain.len() + self.bound.len() + self.ext_gain.len() + self.level.len()) * 8
            + self.lvl_off.len() * 4
    }
}

/// The served near-field PU tables for one concrete budget vector:
/// receiver-major CSR (ids ascending) plus the certified residual.
#[derive(Debug)]
struct PuView {
    slot_pu_off: Vec<u32>,
    slot_pu_id: Vec<u32>,
    slot_pu_gain: Vec<f64>,
    /// Per-slot certified upper bound on the received power if every
    /// excluded PU transmitted at once (the PU-side truncation error):
    /// the slot's far-field bound, or the exact exclusion level on a slot
    /// that took the exact fallback.
    pu_residual: Vec<f64>,
}

/// Transmitter-major transpose of the served near-field PU view: for
/// each PU, the receiver slots whose near lists keep it, with the same
/// precomputed gains (slots ascending per row).
///
/// Together with the transmitter-major rows of [`SuCsrStage`] this is
/// the reverse index the engine's delta path walks: turning a PU on or
/// off (or starting/ending an SU transmission) touches exactly one row
/// instead of scanning every active reception, and the row carries the
/// gains so the event loop never calls `pu_gain`/`su_gain`.
#[derive(Debug)]
struct PuRevStage {
    pu_off: Vec<u32>,
    pu_slot: Vec<u32>,
    pu_gain: Vec<f64>,
}

impl PuRevStage {
    /// Transposes a receiver-major [`PuView`] (O(nnz) counting scatter).
    fn from_view(num_pus: usize, view: &PuView) -> Self {
        let (pu_off, pu_slot, pu_gain) = crate::topology::transpose_csr(
            num_pus,
            &view.slot_pu_off,
            &view.slot_pu_id,
            &view.slot_pu_gain,
        );
        Self {
            pu_off,
            pu_slot,
            pu_gain,
        }
    }
}

/// Sparse gain stages (`Truncated` model).
#[derive(Clone, Debug)]
struct SparseRadio {
    gmin: Arc<GminStage>,
    cutoff: Arc<CutoffStage>,
    su: Arc<SuCsrStage>,
    structure: Arc<PuStructure>,
    view: Arc<PuView>,
    /// Reverse (PU-major) index over `view`, rebuilt alongside it.
    rev: Arc<PuRevStage>,
}

#[derive(Clone, Debug)]
enum RadioGains {
    Dense(Arc<DenseStage>),
    Sparse(SparseRadio),
}

/// The radio-dependent tables of a [`crate::SimWorld`], derived from an
/// immutable [`Topology`] by [`Radio::customize`] and cheaply re-derived
/// by [`Radio::recustomize`] when only some inputs change.
#[derive(Clone, Debug)]
pub struct Radio {
    params: RadioParams,
    sense: Arc<SenseStage>,
    gains: RadioGains,
}

impl Radio {
    /// Derives every radio-dependent table from scratch.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] for an invalid truncation epsilon, a
    /// sensing range below the SU radius, or a tree link longer than the
    /// SU radius.
    pub fn customize(topology: &Topology, params: &RadioParams) -> Result<Self, WorldError> {
        Self::customize_from(topology, params, None)
    }

    /// Like [`Radio::customize`], but reuses (by `Arc` clone) every stage
    /// of `self` whose fingerprinted inputs are bit-identical under the
    /// new parameters. The result is guaranteed bit-identical to a fresh
    /// [`Radio::customize`].
    ///
    /// # Errors
    ///
    /// Same as [`Radio::customize`].
    pub fn recustomize(
        &self,
        topology: &Topology,
        params: &RadioParams,
    ) -> Result<Self, WorldError> {
        Self::customize_from(topology, params, Some(self))
    }

    fn customize_from(
        topology: &Topology,
        params: &RadioParams,
        prev: Option<&Radio>,
    ) -> Result<Self, WorldError> {
        let phy = &params.phy;
        let r = phy.su_radius();
        if let InterferenceModel::Truncated { epsilon } = params.interference {
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(WorldError::BadEpsilon { epsilon });
            }
        }
        if params.pu_sense_range < r {
            return Err(WorldError::SenseRangeTooSmall {
                which: "pu",
                range: params.pu_sense_range,
                r,
            });
        }
        if params.su_sense_range < r {
            return Err(WorldError::SenseRangeTooSmall {
                which: "su",
                range: params.su_sense_range,
                r,
            });
        }
        for (i, &d) in topology.link_dist().iter().enumerate().skip(1) {
            if d > r + 1e-9 {
                return Err(WorldError::LinkTooLong {
                    child: i as u32,
                    parent: topology.parents()[i].expect("non-root nodes have parents"),
                    distance: d,
                });
            }
        }

        let sense_key = (
            params.pu_sense_range.to_bits(),
            params.su_sense_range.to_bits(),
        );
        let sense = match prev {
            Some(p) if p.sense.key == sense_key => p.sense.clone(),
            _ => Arc::new(build_sense(topology, params)),
        };

        let alpha_key = phy.alpha().to_bits();
        let gains = match params.interference {
            InterferenceModel::Exact => {
                let dense = match prev.map(|p| &p.gains) {
                    Some(RadioGains::Dense(d)) if d.key == alpha_key => d.clone(),
                    _ => Arc::new(build_dense(topology, phy.alpha())),
                };
                RadioGains::Dense(dense)
            }
            InterferenceModel::Truncated { epsilon } => {
                let prev_sparse = match prev.map(|p| &p.gains) {
                    Some(RadioGains::Sparse(s)) => Some(s),
                    _ => None,
                };
                let gmin = match prev_sparse {
                    Some(p) if p.gmin.key == alpha_key => p.gmin.clone(),
                    _ => Arc::new(build_gmin(topology, phy.alpha())),
                };
                let skey = StructureKey {
                    alpha: alpha_key,
                    su_radius: r.to_bits(),
                    su_sense: params.su_sense_range.to_bits(),
                    epsilon: epsilon.to_bits(),
                    eta_s: phy.su_sir_threshold().to_bits(),
                };
                let cutoff = match prev_sparse {
                    Some(p) if p.cutoff.key == skey => p.cutoff.clone(),
                    _ => Arc::new(build_cutoffs(topology, params, epsilon, &gmin.g_min, skey)),
                };
                let su = match prev_sparse {
                    Some(p) if p.su.key == skey => p.su.clone(),
                    _ => Arc::new(build_su_csr(topology, phy.alpha(), &cutoff.cutoff, skey)),
                };
                let threshold = pu_thresholds(phy, epsilon, &gmin.g_min);
                let reusable = prev_sparse.filter(|p| p.structure.key == skey);
                let (structure, view) = match reusable {
                    Some(p) => match assemble_pu_view(&p.structure, phy.pu_power(), &threshold) {
                        Some(view) => (p.structure.clone(), view),
                        None => fresh_pu(topology, phy, &cutoff.cutoff, &threshold, skey),
                    },
                    None => fresh_pu(topology, phy, &cutoff.cutoff, &threshold, skey),
                };
                let rev = Arc::new(PuRevStage::from_view(topology.num_pus(), &view));
                RadioGains::Sparse(SparseRadio {
                    gmin,
                    cutoff,
                    su,
                    structure,
                    view: Arc::new(view),
                    rev,
                })
            }
        };

        Ok(Self {
            params: *params,
            sense,
            gains,
        })
    }

    /// The parameters this radio was customized with.
    #[must_use]
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    pub(crate) fn su_hears_su(&self, su: u32) -> &[u32] {
        &self.sense.su_hears_su[su as usize]
    }

    pub(crate) fn pu_fanout(&self, pu: usize) -> &[u32] {
        &self.sense.pu_fanout[pu]
    }

    /// The words of PU `pu`'s segment in the carrier-sense bitmap (see
    /// [`Radio::fanout_words`]).
    pub(crate) fn pu_fanout_words(&self, pu: usize) -> std::ops::Range<usize> {
        let w = &self.sense.fanout_word;
        w[pu] as usize..w[pu + 1] as usize
    }

    /// Length in words of a bitmap with one bit per PU fanout entry,
    /// each PU's segment starting on a fresh word.
    pub(crate) fn fanout_words(&self) -> usize {
        self.sense.fanout_word.last().map_or(0, |&w| w as usize)
    }

    /// The PUs `su` senses, each with its position in that PU's fanout
    /// (PUs ascending).
    pub(crate) fn su_sensed_pus(&self, su: u32) -> &[(u32, u32)] {
        let off = &self.sense.su_pu_off;
        &self.sense.su_pus[off[su as usize] as usize..off[su as usize + 1] as usize]
    }

    pub(crate) fn pu_gain(&self, pu: usize, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.pu_gain[pu * d.slots + slot as usize],
            RadioGains::Sparse(s) => {
                let v = &s.view;
                let lo = v.slot_pu_off[slot as usize] as usize;
                let hi = v.slot_pu_off[slot as usize + 1] as usize;
                match v.slot_pu_id[lo..hi].binary_search(&(pu as u32)) {
                    Ok(idx) => v.slot_pu_gain[lo + idx],
                    Err(_) => 0.0,
                }
            }
        }
    }

    pub(crate) fn su_gain(&self, su: u32, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.su_gain[su as usize * d.slots + slot as usize],
            RadioGains::Sparse(s) => {
                let csr = &s.su;
                let lo = csr.su_off[su as usize] as usize;
                let hi = csr.su_off[su as usize + 1] as usize;
                match csr.su_slot[lo..hi].binary_search(&slot) {
                    Ok(idx) => csr.su_gain[lo + idx],
                    Err(_) => 0.0,
                }
            }
        }
    }

    pub(crate) fn near_pus(&self, slot: u32) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => {
                let v = &s.view;
                let lo = v.slot_pu_off[slot as usize] as usize;
                let hi = v.slot_pu_off[slot as usize + 1] as usize;
                Some((&v.slot_pu_id[lo..hi], &v.slot_pu_gain[lo..hi]))
            }
        }
    }

    /// Whether this radio carries the transmitter-indexed reverse rows
    /// (`who_hears_su`/`who_hears_pu`) the delta engine needs.
    pub(crate) fn has_reverse_index(&self) -> bool {
        matches!(self.gains, RadioGains::Sparse(_))
    }

    /// The receiver slots that hear `su` in the sparse near-field
    /// tables, with precomputed gains (slots ascending) — row `su` of
    /// the transmitter-major SU CSR. `None` in dense mode.
    pub(crate) fn who_hears_su(&self, su: u32) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => {
                let csr = &s.su;
                let lo = csr.su_off[su as usize] as usize;
                let hi = csr.su_off[su as usize + 1] as usize;
                Some((&csr.su_slot[lo..hi], &csr.su_gain[lo..hi]))
            }
        }
    }

    /// The receiver slots whose near lists keep PU `pu`, with
    /// precomputed gains (slots ascending) — row `pu` of the reverse
    /// PU index. `None` in dense mode.
    pub(crate) fn who_hears_pu(&self, pu: usize) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => {
                let rev = &s.rev;
                let lo = rev.pu_off[pu] as usize;
                let hi = rev.pu_off[pu + 1] as usize;
                Some((&rev.pu_slot[lo..hi], &rev.pu_gain[lo..hi]))
            }
        }
    }

    pub(crate) fn truncation_stats(&self) -> Option<(&[f64], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some((&s.cutoff.cutoff, &s.view.pu_residual)),
        }
    }

    pub(crate) fn gain_table_bytes(&self) -> usize {
        match &self.gains {
            RadioGains::Dense(d) => (d.pu_gain.len() + d.su_gain.len()) * 8,
            RadioGains::Sparse(s) => {
                (s.cutoff.cutoff.len() + s.view.pu_residual.len()) * 8
                    + (s.su.su_off.len() + s.su.su_slot.len()) * 4
                    + s.su.su_gain.len() * 8
                    + (s.view.slot_pu_off.len() + s.view.slot_pu_id.len()) * 4
                    + s.view.slot_pu_gain.len() * 8
                    + (s.rev.pu_off.len() + s.rev.pu_slot.len()) * 4
                    + s.rev.pu_gain.len() * 8
                    + s.structure.bytes()
            }
        }
    }
}

fn build_sense(topology: &Topology, params: &RadioParams) -> SenseStage {
    let sus = topology.su_positions();
    let index = topology.su_index();
    let mut su_hears_su = vec![Vec::new(); sus.len()];
    for (i, &p) in sus.iter().enumerate() {
        index.for_each_within(p, params.su_sense_range, |j| {
            if j as usize != i {
                su_hears_su[i].push(j);
            }
        });
        su_hears_su[i].sort_unstable();
    }
    let mut pu_fanout = vec![Vec::new(); topology.num_pus()];
    for (k, &pu) in topology.pu_positions().iter().enumerate() {
        index.for_each_within(pu, params.pu_sense_range, |j| pu_fanout[k].push(j));
        pu_fanout[k].sort_unstable();
    }
    let mut fanout_word = Vec::with_capacity(pu_fanout.len() + 1);
    fanout_word.push(0u32);
    let mut words = 0;
    let mut su_pu_off = vec![0u32; sus.len() + 1];
    for fanout in &pu_fanout {
        words += fanout.len().div_ceil(64) as u32;
        fanout_word.push(words);
        for &v in fanout {
            su_pu_off[v as usize + 1] += 1;
        }
    }
    for i in 0..sus.len() {
        su_pu_off[i + 1] += su_pu_off[i];
    }
    // Filling PU by PU keeps every SU's row in ascending PU order.
    let mut fill = su_pu_off[..sus.len()].to_vec();
    let mut su_pus = vec![(0u32, 0u32); su_pu_off[sus.len()] as usize];
    for (k, fanout) in pu_fanout.iter().enumerate() {
        for (pos, &v) in fanout.iter().enumerate() {
            su_pus[fill[v as usize] as usize] = (k as u32, pos as u32);
            fill[v as usize] += 1;
        }
    }
    SenseStage {
        key: (
            params.pu_sense_range.to_bits(),
            params.su_sense_range.to_bits(),
        ),
        su_hears_su,
        pu_fanout,
        fanout_word,
        su_pu_off,
        su_pus,
    }
}

fn build_dense(topology: &Topology, alpha: f64) -> DenseStage {
    // The original dense construction, kept verbatim so Exact worlds are
    // bit-for-bit identical to the pre-split engine.
    let sus = topology.su_positions();
    let receivers = topology.receivers();
    let gain =
        |a: crn_geometry::Point, b: crn_geometry::Point| a.distance(b).max(1e-9).powf(-alpha);
    let m = receivers.len();
    let mut pu_gain = vec![0.0; topology.num_pus() * m];
    for (k, &pu) in topology.pu_positions().iter().enumerate() {
        for (s, &r) in receivers.iter().enumerate() {
            pu_gain[k * m + s] = gain(pu, sus[r as usize]);
        }
    }
    let mut su_gain = vec![0.0; sus.len() * m];
    for (i, &su) in sus.iter().enumerate() {
        for (s, &r) in receivers.iter().enumerate() {
            su_gain[i * m + s] = gain(su, sus[r as usize]);
        }
    }
    DenseStage {
        key: alpha.to_bits(),
        slots: m,
        pu_gain,
        su_gain,
    }
}

fn build_gmin(topology: &Topology, alpha: f64) -> GminStage {
    let slots = topology.receiver_slots();
    let mut g_min = vec![f64::INFINITY; topology.num_receiver_slots()];
    for (i, &p) in topology.parents().iter().enumerate() {
        if let Some(p) = p {
            let s = slots[p as usize].expect("parents are receivers") as usize;
            g_min[s] = g_min[s].min(path_gain(topology.link_dist()[i], alpha));
        }
    }
    GminStage {
        key: alpha.to_bits(),
        g_min,
    }
}

fn build_cutoffs(
    topology: &Topology,
    params: &RadioParams,
    epsilon: f64,
    g_min: &[f64],
    key: StructureKey,
) -> CutoffStage {
    let phy = &params.phy;
    // Cutoffs must at least cover every tree link (validation allows
    // d <= r + 1e-9) and need never exceed the deployment's diameter.
    let r_floor = phy.su_radius() * (1.0 + 1e-6) + 1e-6;
    let r_max = (r_floor * (1.0 + 1e-6)).max(topology.bbox_diag());
    // The bound is normalized (unit power): the budget `0.5·ε·g_min/η_s`
    // is the power-free rearrangement of `0.5·ε·(p_s·g_min)/η_s` against
    // a `p_s`-scaled tail, so the resulting radii survive power sweeps.
    let bound = FarFieldBound::normalized(phy.alpha(), params.su_sense_range);
    let table = CutoffTable::new(&bound, r_floor, r_max, 512);
    let eta_s = phy.su_sir_threshold();
    let cutoff = g_min
        .iter()
        .map(|&g| table.radius_for(0.5 * epsilon * g / eta_s))
        .collect();
    CutoffStage { key, cutoff }
}

fn build_su_csr(topology: &Topology, alpha: f64, cutoff: &[f64], key: StructureKey) -> SuCsrStage {
    // Two slot-major passes over the grid index: the first counts each
    // transmitter row, the second fills the rows in the same visit
    // order, so each row comes out slot-ascending without buffering the
    // whole matrix as triples.
    let sus = topology.su_positions();
    let n = sus.len();
    let index = topology.su_index();
    let receivers = topology.receivers();
    let mut su_off = vec![0u32; n + 1];
    for (s, &rx) in receivers.iter().enumerate() {
        index.for_each_within(sus[rx as usize], cutoff[s], |j| su_off[j as usize + 1] += 1);
    }
    for i in 0..n {
        su_off[i + 1] += su_off[i];
    }
    let nnz = su_off[n] as usize;
    let mut su_slot = vec![0u32; nnz];
    let mut su_gain = vec![0.0f64; nnz];
    let mut cursor: Vec<u32> = su_off[..n].to_vec();
    for (s, &rx) in receivers.iter().enumerate() {
        let q = sus[rx as usize];
        index.for_each_within(q, cutoff[s], |j| {
            let c = cursor[j as usize] as usize;
            su_slot[c] = s as u32;
            su_gain[c] = path_gain_sq(sus[j as usize].distance_sq(q), alpha);
            cursor[j as usize] += 1;
        });
    }
    SuCsrStage {
        key,
        su_off,
        su_slot,
        su_gain,
    }
}

/// PU-side exclusion threshold per slot, in gain space:
/// `p_p · excluded ≤ 0.5·ε·(p_s·g_min)/η_s` rearranged so the comparison
/// against the stored bounds and levels is power-free.
fn pu_thresholds(phy: &PhyParams, epsilon: f64, g_min: &[f64]) -> Vec<f64> {
    g_min
        .iter()
        .map(|&g| 0.5 * epsilon * phy.su_power() * g / (phy.su_sir_threshold() * phy.pu_power()))
        .collect()
}

/// Builds the PU structure deep enough for `threshold` and assembles its
/// view (which cannot fail on a structure built for the same budgets).
fn fresh_pu(
    topology: &Topology,
    phy: &PhyParams,
    cutoff: &[f64],
    threshold: &[f64],
    key: StructureKey,
) -> (Arc<PuStructure>, PuView) {
    let structure = Arc::new(build_pu_structure(
        topology,
        phy.alpha(),
        cutoff,
        threshold,
        key,
    ));
    let view = assemble_pu_view(&structure, phy.pu_power(), threshold)
        .expect("a freshly built structure covers its own budgets");
    (structure, view)
}

/// Exact-zone radius of the far-field bound, as a multiple of the slot's
/// cutoff: PUs nearer than this are summed one by one.
const EXACT_ZONE: f64 = 3.0;
/// Leaf cell width of [`PuCells`], in mean PU spacings.
const LEAF_SPACINGS: f64 = 2.0;
/// Opening criterion of the far-field bound: a cell beyond the exact
/// zone `R` is aggregated once its PUs' bounding box, of longest side
/// `w` at nearest distance `d`, satisfies `w·R ≤ THETA·d²` — the
/// allowed relative size grows with distance as the far field's weight
/// falls off.
const THETA: f64 = 0.1;

/// One cell of a [`PuCells`] level: its PU count and the bounding box of
/// those PUs (not of the cell).
#[derive(Clone, Copy, Debug)]
struct Cell {
    count: u32,
    lo: Point,
    hi: Point,
}

impl Cell {
    const EMPTY: Cell = Cell {
        count: 0,
        lo: Point::new(f64::INFINITY, f64::INFINITY),
        hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.lo = Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y));
        self.hi = Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y));
    }

    /// Squared distance from `q` to the nearest point of the bounding
    /// box, rounded so that it never exceeds `p.distance_sq(q)` for any
    /// PU `p` in the cell: each coordinate difference is the same
    /// `p - q` subtraction `Point::distance_sq` rounds, taken at the box
    /// edge, and rounding is monotone.
    fn nearest_sq(&self, q: Point) -> f64 {
        let gap = |lo: f64, hi: f64, q: f64| {
            if q < lo {
                lo - q
            } else if q > hi {
                hi - q
            } else {
                0.0
            }
        };
        let dx = gap(self.lo.x, self.hi.x, q.x);
        let dy = gap(self.lo.y, self.hi.y, q.y);
        dx * dx + dy * dy
    }

    fn extent(&self) -> f64 {
        (self.hi.x - self.lo.x).max(self.hi.y - self.lo.y)
    }
}

#[derive(Debug)]
struct CellLevel {
    cols: usize,
    rows: usize,
    /// Row-major cells.
    cells: Vec<Cell>,
}

/// A pyramid of cell aggregates over the PU positions — the one PU index
/// of [`build_pu_structure`], behind both the near lists and the
/// far-field bound.
///
/// The leaves tile the PUs' bounding box with square cells about
/// `LEAF_SPACINGS` mean PU spacings wide; each level above merges 2×2
/// cells of the one below, up to a single root. It depends on the PU
/// positions only.
#[derive(Debug)]
struct PuCells {
    /// PU ids and positions grouped by leaf; leaf `i` owns
    /// `id[leaf_off[i]..leaf_off[i + 1]]` and the same range of `pos`.
    leaf_off: Vec<u32>,
    id: Vec<u32>,
    pos: Vec<Point>,
    /// `levels[0]` are the leaves, the last level is the root.
    levels: Vec<CellLevel>,
}

impl PuCells {
    /// Builds the pyramid over a non-empty PU set.
    fn build(pus: &[Point]) -> Self {
        let n = pus.len();
        let (mut lo, mut hi) = (pus[0], pus[0]);
        for p in pus {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let (w, h) = (hi.x - lo.x, hi.y - lo.y);
        // Mean spacing over the bounding box; a collinear box falls back
        // to its long side, which keeps the leaf count O(n). The floor
        // only matters when every PU sits on one point (one leaf).
        let area = (w * h).max(w.max(h).powi(2) / n as f64);
        let leaf = (LEAF_SPACINGS * (area / n as f64).sqrt()).max(f64::MIN_POSITIVE);
        let (cols, rows) = ((w / leaf) as usize + 1, (h / leaf) as usize + 1);
        let leaf_of = |p: Point| {
            let c = (((p.x - lo.x) / leaf) as usize).min(cols - 1);
            let r = (((p.y - lo.y) / leaf) as usize).min(rows - 1);
            r * cols + c
        };

        let mut leaf_off = vec![0u32; cols * rows + 1];
        for &p in pus {
            leaf_off[leaf_of(p) + 1] += 1;
        }
        for i in 0..cols * rows {
            leaf_off[i + 1] += leaf_off[i];
        }
        let mut cursor: Vec<u32> = leaf_off[..cols * rows].to_vec();
        let mut id = vec![0u32; n];
        let mut pos = vec![Point::new(0.0, 0.0); n];
        let mut cells = vec![Cell::EMPTY; cols * rows];
        for (k, &p) in pus.iter().enumerate() {
            let i = leaf_of(p);
            let c = cursor[i] as usize;
            id[c] = k as u32;
            pos[c] = p;
            cursor[i] += 1;
            cells[i].merge(&Cell {
                count: 1,
                lo: p,
                hi: p,
            });
        }

        let mut levels = vec![CellLevel { cols, rows, cells }];
        loop {
            let below = levels.last().expect("leaf level exists");
            if below.cols == 1 && below.rows == 1 {
                break;
            }
            let (cols, rows) = (below.cols.div_ceil(2), below.rows.div_ceil(2));
            let mut cells = vec![Cell::EMPTY; cols * rows];
            for r in 0..below.rows {
                for c in 0..below.cols {
                    let child = &below.cells[r * below.cols + c];
                    if child.count > 0 {
                        cells[(r / 2) * cols + c / 2].merge(child);
                    }
                }
            }
            levels.push(CellLevel { cols, rows, cells });
        }
        Self {
            leaf_off,
            id,
            pos,
            levels,
        }
    }

    /// One pass over the cells for a receiver at `q`: pushes every PU with
    /// `d² <= cutoff²` onto `near` as `(id, gain)` (in cell order, not id
    /// order), and returns a certified upper bound on the far-field gain
    /// sum — `Σ path_gain_sq(d²)` over the PUs with `d² > cutoff²` — as a
    /// pure function of the PU positions, `alpha` and `cutoff`.
    ///
    /// Cells are opened from the root down. A cell wholly beyond the exact
    /// zone (`EXACT_ZONE · cutoff`) that passes the `THETA` criterion adds
    /// its count times the gain at its bounding box's nearest point (a
    /// per-PU upper bound, see [`Cell::nearest_sq`]); leaves that are
    /// still open sort their PUs into near and far by the same
    /// `distance_sq` test the exact scan applies and add the far ones'
    /// gains exactly. No near PU is ever aggregated: its cell's nearest
    /// `d²` is at most its own, hence inside the exact zone. The total is
    /// inflated by a rounding slack sized from the term count, so it also
    /// bounds the id-order floating-point sum the exact fallback folds.
    fn near_and_far_bound(
        &self,
        q: Point,
        cutoff: f64,
        alpha: f64,
        near: &mut Vec<(u32, f64)>,
        stack: &mut Vec<(usize, usize, usize)>,
        work: &mut PuWork,
    ) -> f64 {
        let cutoff_sq = cutoff * cutoff;
        let zone = EXACT_ZONE * cutoff;
        let zone_sq = zone * zone;
        let mut sum = 0.0;
        let mut terms = 0usize;
        stack.clear();
        stack.push((self.levels.len() - 1, 0, 0));
        while let Some((l, c, r)) = stack.pop() {
            if l == 0 {
                let i = r * self.levels[0].cols + c;
                let leaf = self.leaf_off[i] as usize..self.leaf_off[i + 1] as usize;
                for (&k, p) in self.id[leaf.clone()].iter().zip(&self.pos[leaf]) {
                    let d2 = p.distance_sq(q);
                    let g = path_gain_sq(d2, alpha);
                    work.exact_evals += 1;
                    if d2 <= cutoff_sq {
                        near.push((k, g));
                    } else {
                        sum += g;
                        terms += 1;
                    }
                }
                continue;
            }
            let below = &self.levels[l - 1];
            for rr in 2 * r..(2 * r + 2).min(below.rows) {
                for cc in 2 * c..(2 * c + 2).min(below.cols) {
                    let cell = &below.cells[rr * below.cols + cc];
                    if cell.count == 0 {
                        continue;
                    }
                    let d2 = cell.nearest_sq(q);
                    if d2 > zone_sq && cell.extent() * zone <= THETA * d2 {
                        sum += f64::from(cell.count) * path_gain_sq(d2, alpha);
                        terms += 1;
                    } else {
                        stack.push((l - 1, cc, rr));
                    }
                }
            }
        }
        // Against the real sum of the far PUs' gains, this fold of `terms`
        // terms may fall short by `terms` half-ulps, the fallback's fold of
        // at most `pos.len()` terms may exceed it by as many, and each
        // aggregate term (a product, and a gain monotone only to within an
        // ulp or so) by a few more. The slack is twice all of that.
        let slack = (self.pos.len() + terms + 16) as f64 * f64::EPSILON;
        sum * (1.0 + slack)
    }
}

/// For every slot: lists the PUs inside the cutoff (`base`) and bounds
/// the far field from above, both in one [`PuCells::near_and_far_bound`]
/// pass, and — only where that bound exceeds the slot's threshold — runs
/// the exact fallback: partition every PU into near and far field, then
/// pull the nearest far-field PUs (`ext`) until the exact excluded gain
/// sum fits the threshold, recording the exclusion level after every
/// pull.
///
/// A slot the bound settles pulls nothing, and neither would the exact
/// path: its exact far-field sum is at most the bound, hence at most the
/// threshold. So the near lists are the ones the exact scan gives, and
/// the served residual is a certified upper bound that is exact on
/// fallback slots. In the fallback, level 0 is the id-order sum of the
/// whole far field and levels `k ≥ 1` are fresh left-to-right folds over
/// the distance-sorted remainder; like the bound, every stored level is
/// a pure function of `(topology, alpha, cutoff)`, independent of which
/// budget triggered its computation. PUs obey no packing bound, so the
/// bound sums the actual PU field rather than an analytic tail.
fn build_pu_structure(
    topology: &Topology,
    alpha: f64,
    cutoff: &[f64],
    threshold: &[f64],
    key: StructureKey,
) -> PuStructure {
    let m = topology.num_receiver_slots();
    let sus = topology.su_positions();
    let pus = topology.pu_positions();
    let receivers = topology.receivers();
    let cells = (!pus.is_empty()).then(|| PuCells::build(pus));
    let mut work = PuWork::default();
    let mut base_off = vec![0u32; m + 1];
    let mut base_id = Vec::new();
    let mut base_gain = Vec::new();
    let mut bound = Vec::with_capacity(m);
    let mut ext_off = vec![0u32; m + 1];
    let mut ext_id = Vec::new();
    let mut ext_gain = Vec::new();
    let mut lvl_off = vec![0u32; m + 1];
    let mut level = Vec::new();
    let mut near: Vec<(u32, f64)> = Vec::new();
    let mut stack = Vec::new();
    let mut far: Vec<(u64, u32, f64)> = Vec::new();
    for s in 0..m {
        let q = sus[receivers[s] as usize];
        near.clear();
        let u = cells.as_ref().map_or(0.0, |cells| {
            cells.near_and_far_bound(q, cutoff[s], alpha, &mut near, &mut stack, &mut work)
        });
        near.sort_unstable_by_key(|&(id, _)| id);
        base_id.extend(near.iter().map(|&(id, _)| id));
        base_gain.extend(near.iter().map(|&(_, g)| g));
        base_off[s + 1] = base_id.len() as u32;
        bound.push(u);
        if u > threshold[s] {
            work.fallback_slots += 1;
            far.clear();
            let cutoff_sq = cutoff[s] * cutoff[s];
            for (k, &pu) in pus.iter().enumerate() {
                let d2 = pu.distance_sq(q);
                if d2 > cutoff_sq {
                    far.push((d2.to_bits(), k as u32, path_gain_sq(d2, alpha)));
                }
            }
            work.exact_evals += far.len() as u64;
            // Distances are non-negative finite, so their bit patterns
            // order identically to the values; `far` starts in id order,
            // so the stable sort breaks distance ties toward the lower PU
            // id.
            let lvl0: f64 = far.iter().map(|&(_, _, g)| g).sum();
            level.push(lvl0);
            if lvl0 > threshold[s] {
                far.sort_by_key(|&(d2_bits, _, _)| d2_bits);
                let mut pulled = 0usize;
                while level.last().copied().expect("level 0 exists") > threshold[s]
                    && pulled < far.len()
                {
                    let (_, id, g) = far[pulled];
                    ext_id.push(id);
                    ext_gain.push(g);
                    pulled += 1;
                    level.push(far[pulled..].iter().map(|&(_, _, g)| g).sum());
                }
            }
        }
        ext_off[s + 1] = ext_id.len() as u32;
        lvl_off[s + 1] = level.len() as u32;
    }
    PuStructure {
        key,
        base_off,
        base_id,
        base_gain,
        bound,
        ext_off,
        ext_id,
        ext_gain,
        lvl_off,
        level,
        work,
    }
}

/// Derives the served near-field PU tables for `threshold` from a stored
/// structure, by the rule a fresh build applies: a slot whose bound fits
/// its threshold pulls nothing and serves the bound as its residual;
/// any other slot takes its pull count from the stored exclusion levels.
/// `None` when some slot needs a deeper pulled prefix than the structure
/// holds, or levels it never stored (the caller then rebuilds).
fn assemble_pu_view(structure: &PuStructure, p_p: f64, threshold: &[f64]) -> Option<PuView> {
    let m = structure.base_off.len() - 1;
    let mut slot_pu_off = vec![0u32; m + 1];
    let mut slot_pu_id = Vec::new();
    let mut slot_pu_gain = Vec::new();
    let mut pu_residual = vec![0.0f64; m];
    let mut near: Vec<(u32, f64)> = Vec::new();
    for s in 0..m {
        let (k, excluded) = if structure.bound[s] <= threshold[s] {
            (0, structure.bound[s])
        } else {
            let levels = structure.levels(s);
            // Levels are non-increasing, so the first one at or below the
            // threshold is the canonical pull count.
            let k = levels.partition_point(|&v| v > threshold[s]);
            if k >= levels.len() {
                return None;
            }
            (k, levels[k])
        };
        pu_residual[s] = p_p * excluded;
        let (base_ids, base_gains) = structure.base(s);
        let (ext_ids, ext_gains) = structure.ext(s);
        near.clear();
        near.extend(base_ids.iter().copied().zip(base_gains.iter().copied()));
        near.extend(
            ext_ids[..k]
                .iter()
                .copied()
                .zip(ext_gains[..k].iter().copied()),
        );
        near.sort_unstable_by_key(|&(id, _)| id);
        for &(id, g) in &near {
            slot_pu_id.push(id);
            slot_pu_gain.push(g);
        }
        slot_pu_off[s + 1] = slot_pu_id.len() as u32;
    }
    Some(PuView {
        slot_pu_off,
        slot_pu_id,
        slot_pu_gain,
        pu_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::{Point, Region};

    fn phy() -> PhyParams {
        PhyParams::paper_simulation_defaults()
    }

    /// A 12×12 grid with PUs on a coarser lattice — small enough to be
    /// fast, big enough that truncation actually drops far-field pairs.
    fn grid() -> Topology {
        let cols = 12usize;
        let side = cols as f64 * 7.0 + 2.0;
        let pus = (0..16)
            .map(|k| {
                Point::new(
                    (k % 4) as f64 * side / 4.0 + 9.0,
                    (k / 4) as f64 * side / 4.0 + 9.0,
                )
            })
            .collect();
        su_grid(cols, pus)
    }

    /// A `cols × cols` SU grid at spacing 7 whose rows chain leftward
    /// into column 0, which climbs to the base station at the corner.
    fn su_grid(cols: usize, pus: Vec<Point>) -> Topology {
        su_comb(cols, 1, pus)
    }

    /// [`su_grid`] keeping column 0 but only every `tooth`-th row: a
    /// comb that spans the same square with far fewer receivers.
    fn su_comb(cols: usize, tooth: usize, pus: Vec<Point>) -> Topology {
        let spacing = 7.0;
        let mut sus = Vec::new();
        let mut parents = Vec::new();
        let mut prev_row_start = 0;
        for row in 0..cols {
            let row_start = sus.len();
            let width = if row % tooth == 0 { cols } else { 1 };
            for col in 0..width {
                sus.push(Point::new(
                    col as f64 * spacing + 1.0,
                    row as f64 * spacing + 1.0,
                ));
                parents.push(match (row, col) {
                    (0, 0) => None,
                    (_, 0) => Some(prev_row_start as u32),
                    _ => Some((row_start + col - 1) as u32),
                });
            }
            prev_row_start = row_start;
        }
        let side = cols as f64 * spacing + 2.0;
        Topology::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .build()
            .unwrap()
    }

    fn sparse_params() -> RadioParams {
        RadioParams::new(phy())
            .sense_range(24.0)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 })
    }

    /// `params` with the SU transmit power replaced (`P_p = 10`).
    fn with_su_power(params: &RadioParams, su_power: f64) -> RadioParams {
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(10.0)
            .su_power(su_power)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        params.phy(b.build().unwrap())
    }

    fn assert_same_tables(topo: &Topology, a: &Radio, b: &Radio) {
        let m = topo.num_receiver_slots() as u32;
        for su in 0..topo.num_sus() as u32 {
            assert_eq!(a.su_hears_su(su), b.su_hears_su(su));
            assert_eq!(a.su_sensed_pus(su), b.su_sensed_pus(su));
            for s in 0..m {
                assert_eq!(a.su_gain(su, s).to_bits(), b.su_gain(su, s).to_bits());
            }
        }
        for pu in 0..topo.num_pus() {
            assert_eq!(a.pu_fanout(pu), b.pu_fanout(pu));
            assert_eq!(a.pu_fanout_words(pu), b.pu_fanout_words(pu));
            for s in 0..m {
                assert_eq!(
                    a.pu_gain(pu, s).to_bits(),
                    b.pu_gain(pu, s).to_bits(),
                    "pu {pu} slot {s}"
                );
            }
        }
        for s in 0..m {
            assert_eq!(a.near_pus(s), b.near_pus(s));
        }
        for su in 0..topo.num_sus() as u32 {
            assert_eq!(a.who_hears_su(su), b.who_hears_su(su));
        }
        for pu in 0..topo.num_pus() {
            assert_eq!(a.who_hears_pu(pu), b.who_hears_pu(pu));
        }
        match (a.truncation_stats(), b.truncation_stats()) {
            (Some((ca, ra)), Some((cb, rb))) => {
                assert_eq!(ca, cb);
                assert_eq!(ra, rb);
            }
            (None, None) => {}
            other => panic!("truncation stats diverged: {other:?}"),
        }
    }

    #[test]
    fn power_recustomize_reuses_every_sparse_stage() {
        let topo = grid();
        let base = sparse_params();
        let radio = Radio::customize(&topo, &base).unwrap();
        // Doubling P_s loosens the PU budget and leaves cutoffs (which
        // are power-normalized) untouched.
        let next = with_su_power(&base, 20.0);
        let re = radio.recustomize(&topo, &next).unwrap();
        assert!(Arc::ptr_eq(&radio.sense, &re.sense), "sense lists rebuilt");
        let (RadioGains::Sparse(old), RadioGains::Sparse(new)) = (&radio.gains, &re.gains) else {
            panic!("expected sparse gains");
        };
        assert!(Arc::ptr_eq(&old.gmin, &new.gmin));
        assert!(Arc::ptr_eq(&old.cutoff, &new.cutoff), "cutoffs rebuilt");
        assert!(Arc::ptr_eq(&old.su, &new.su), "SU CSR rebuilt");
        assert!(
            Arc::ptr_eq(&old.structure, &new.structure),
            "PU structure rebuilt on a looser budget"
        );
        // And the reused stages still produce exactly a fresh build.
        let fresh = Radio::customize(&topo, &next).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    #[test]
    fn tighter_budget_rebuilds_structure_bit_identically() {
        let topo = grid();
        let base = sparse_params();
        let radio = Radio::customize(&topo, &base).unwrap();
        // Halving P_s tightens the PU budget below what the stored
        // prefix certifies for some slots.
        let next = with_su_power(&base, 5.0);
        let re = radio.recustomize(&topo, &next).unwrap();
        let fresh = Radio::customize(&topo, &next).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    #[test]
    fn alpha_recustomize_matches_fresh_build() {
        let topo = grid();
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::Truncated { epsilon: 0.1 },
        ] {
            let base = sparse_params().interference(model);
            let radio = Radio::customize(&topo, &base).unwrap();
            let mut b = PhyParams::builder();
            b.alpha(3.5)
                .pu_power(10.0)
                .su_power(10.0)
                .pu_radius(10.0)
                .su_radius(10.0)
                .pu_sir_threshold(phy().pu_sir_threshold())
                .su_sir_threshold(phy().su_sir_threshold());
            let next = base.phy(b.build().unwrap());
            let re = radio.recustomize(&topo, &next).unwrap();
            let fresh = Radio::customize(&topo, &next).unwrap();
            assert_same_tables(&topo, &re, &fresh);
        }
    }

    #[test]
    fn dense_power_recustomize_reuses_gains() {
        let topo = grid();
        let base = RadioParams::new(phy()).sense_range(24.0);
        let radio = Radio::customize(&topo, &base).unwrap();
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(30.0)
            .su_power(15.0)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        let re = radio
            .recustomize(&topo, &base.phy(b.build().unwrap()))
            .unwrap();
        let (RadioGains::Dense(old), RadioGains::Dense(new)) = (&radio.gains, &re.gains) else {
            panic!("expected dense gains");
        };
        assert!(Arc::ptr_eq(old, new), "dense gains rebuilt on power change");
        assert!(Arc::ptr_eq(&radio.sense, &re.sense));
    }

    #[test]
    fn sense_range_change_rebuilds_only_sense_in_dense_mode() {
        let topo = grid();
        let base = RadioParams::new(phy()).sense_range(24.0);
        let radio = Radio::customize(&topo, &base).unwrap();
        let re = radio.recustomize(&topo, &base.sense_range(30.0)).unwrap();
        assert!(!Arc::ptr_eq(&radio.sense, &re.sense));
        let (RadioGains::Dense(old), RadioGains::Dense(new)) = (&radio.gains, &re.gains) else {
            panic!("expected dense gains");
        };
        assert!(Arc::ptr_eq(old, new));
        let fresh = Radio::customize(&topo, &base.sense_range(30.0)).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    #[test]
    fn model_switch_recustomizes_cleanly_both_ways() {
        let topo = grid();
        let dense = RadioParams::new(phy()).sense_range(24.0);
        let sparse = sparse_params();
        let d = Radio::customize(&topo, &dense).unwrap();
        let s = d.recustomize(&topo, &sparse).unwrap();
        assert_same_tables(&topo, &s, &Radio::customize(&topo, &sparse).unwrap());
        let back = s.recustomize(&topo, &dense).unwrap();
        assert_same_tables(&topo, &back, &d);
    }

    #[test]
    fn reverse_index_mirrors_forward_tables_exactly() {
        let topo = grid();
        let radio = Radio::customize(&topo, &sparse_params()).unwrap();
        assert!(radio.has_reverse_index());
        let m = topo.num_receiver_slots() as u32;
        // Every reverse-row entry carries the forward gain bit-for-bit,
        // rows are slot-ascending, and nothing is missing: the nonzero
        // counts agree in both orientations.
        let mut su_nnz = 0usize;
        for su in 0..topo.num_sus() as u32 {
            let (slots, gains) = radio.who_hears_su(su).unwrap();
            assert_eq!(slots.len(), gains.len());
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "su {su} unsorted");
            for (&s, &g) in slots.iter().zip(gains) {
                assert_eq!(radio.su_gain(su, s).to_bits(), g.to_bits());
                assert!(g > 0.0);
            }
            su_nnz += slots.len();
        }
        let forward_su_nnz: usize = (0..m)
            .map(|s| {
                (0..topo.num_sus() as u32)
                    .filter(|&su| radio.su_gain(su, s) != 0.0)
                    .count()
            })
            .sum();
        assert_eq!(su_nnz, forward_su_nnz);
        let mut pu_nnz = 0usize;
        for pu in 0..topo.num_pus() {
            let (slots, gains) = radio.who_hears_pu(pu).unwrap();
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "pu {pu} unsorted");
            for (&s, &g) in slots.iter().zip(gains) {
                assert_eq!(radio.pu_gain(pu, s).to_bits(), g.to_bits());
            }
            pu_nnz += slots.len();
        }
        let forward_pu_nnz: usize = (0..m).map(|s| radio.near_pus(s).unwrap().0.len()).sum();
        assert_eq!(pu_nnz, forward_pu_nnz);
    }

    #[test]
    fn sensed_pus_transpose_the_fanout() {
        let topo = grid();
        // 24 keeps every fanout inside one bitmap word; 60 spans several.
        for range in [24.0, 60.0] {
            let radio =
                Radio::customize(&topo, &RadioParams::new(phy()).sense_range(range)).unwrap();
            let mut words = 0;
            let mut entries = 0;
            for pu in 0..topo.num_pus() {
                let seg = radio.pu_fanout_words(pu);
                assert_eq!(seg.start, words, "pu {pu} segment not contiguous");
                assert_eq!(seg.len(), radio.pu_fanout(pu).len().div_ceil(64));
                words = seg.end;
                entries += radio.pu_fanout(pu).len();
            }
            assert_eq!(radio.fanout_words(), words);
            let mut rows = 0;
            for su in 0..topo.num_sus() as u32 {
                let row = radio.su_sensed_pus(su);
                assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "su {su} unsorted");
                for &(pu, pos) in row {
                    assert_eq!(radio.pu_fanout(pu as usize)[pos as usize], su);
                }
                rows += row.len();
            }
            assert_eq!(rows, entries, "range {range}: transpose lost entries");
            if range > 50.0 {
                assert!(words > topo.num_pus(), "no multi-word segment");
            }
        }
    }

    #[test]
    fn dense_mode_has_no_reverse_index() {
        let topo = grid();
        let radio = Radio::customize(&topo, &RadioParams::new(phy()).sense_range(24.0)).unwrap();
        assert!(!radio.has_reverse_index());
        assert!(radio.who_hears_su(0).is_none());
        assert!(radio.who_hears_pu(0).is_none());
    }

    #[test]
    fn rejects_link_longer_than_radius() {
        let topo = Topology::builder(Region::square(40.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(31.0, 1.0)])
            .parents(vec![None, Some(0)])
            .build()
            .unwrap();
        let e = Radio::customize(&topo, &RadioParams::new(phy()).sense_range(35.0)).unwrap_err();
        assert!(matches!(e, WorldError::LinkTooLong { child: 1, .. }));
    }

    /// The exact per-slot PU scan the structure must agree with, written
    /// out independently: per slot, the PUs within the cutoff plus the
    /// nearest far-field PUs pulled (distance ties to the lower id) until
    /// the excluded gain sum fits the threshold. Returns the near ids
    /// (ascending), their gains, and the excluded sum that remains.
    fn exact_pu_scan(
        topo: &Topology,
        alpha: f64,
        cutoff: &[f64],
        threshold: &[f64],
    ) -> Vec<(Vec<u32>, Vec<f64>, f64)> {
        let sus = topo.su_positions();
        let mut out = Vec::new();
        for (s, &rx) in topo.receivers().iter().enumerate() {
            let q = sus[rx as usize];
            let mut near = Vec::new();
            let mut far = Vec::new();
            for (k, &pu) in topo.pu_positions().iter().enumerate() {
                let d2 = pu.distance_sq(q);
                let g = path_gain_sq(d2, alpha);
                if d2 <= cutoff[s] * cutoff[s] {
                    near.push((k as u32, g));
                } else {
                    far.push((d2, k as u32, g));
                }
            }
            let mut excluded: f64 = far.iter().map(|f| f.2).sum();
            far.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut pulled = 0;
            while excluded > threshold[s] && pulled < far.len() {
                near.push((far[pulled].1, far[pulled].2));
                pulled += 1;
                excluded = far[pulled..].iter().map(|f| f.2).sum();
            }
            near.sort_by_key(|&(id, _)| id);
            let (ids, gains) = near.into_iter().unzip();
            out.push((ids, gains, excluded));
        }
        out
    }

    fn sparse_stages(radio: &Radio) -> &SparseRadio {
        match &radio.gains {
            RadioGains::Sparse(s) => s,
            RadioGains::Dense(_) => panic!("expected sparse gains"),
        }
    }

    fn thresholds(radio: &Radio) -> Vec<f64> {
        let InterferenceModel::Truncated { epsilon } = radio.params.interference else {
            panic!("expected a truncated radio");
        };
        pu_thresholds(&radio.params.phy, epsilon, &sparse_stages(radio).gmin.g_min)
    }

    /// Customizes `topo` under `params` and checks every slot against
    /// [`exact_pu_scan`]: identical near lists and gain bits, and a
    /// residual no smaller than the exact excluded power. Returns the
    /// build's work counters and how many slots pulled far-field PUs.
    fn check_against_exact_scan(topo: &Topology, params: &RadioParams) -> (PuWork, usize) {
        let radio = Radio::customize(topo, params).unwrap();
        let threshold = thresholds(&radio);
        let (cutoff, residual) = radio.truncation_stats().unwrap();
        let expect = exact_pu_scan(topo, params.phy.alpha(), cutoff, &threshold);
        let p_p = params.phy.pu_power();
        let structure = &sparse_stages(&radio).structure;
        let mut pulled = 0;
        for (s, (ids, gains, excluded)) in expect.iter().enumerate() {
            let (got_ids, got_gains) = radio.near_pus(s as u32).unwrap();
            assert_eq!(got_ids, ids.as_slice(), "slot {s} near ids");
            let bits = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got_gains), bits(gains), "slot {s} near gains");
            assert!(
                residual[s] >= p_p * excluded,
                "slot {s}: residual {} below the exact excluded power {}",
                residual[s],
                p_p * excluded
            );
            pulled += usize::from(!structure.ext(s).0.is_empty());
        }
        (structure.work, pulled)
    }

    /// `per_side × per_side` PUs at the centres of a square lattice over a
    /// `side`-wide square.
    fn pu_lattice(side: f64, per_side: usize) -> Vec<Point> {
        let step = side / per_side as f64;
        (0..per_side * per_side)
            .map(|k| {
                Point::new(
                    ((k % per_side) as f64 + 0.5) * step,
                    ((k / per_side) as f64 + 0.5) * step,
                )
            })
            .collect()
    }

    /// PUs that stress the far-field bound over a `side`-wide square: a
    /// lattice, tight clumps of PUs beside some of the given SUs, PUs
    /// outside the region (and so outside the SU bounding box), and PUs
    /// on top of SUs (the `1e-18` distance clamp).
    fn adversarial_pus(side: f64, lattice: usize, sus: &[Point], seed: u64) -> Vec<Point> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut pus = pu_lattice(side, lattice);
        for _ in 0..6 {
            let beside = sus[rng.gen_range(0..sus.len())];
            let cx = beside.x + rng.gen_range(-12.0..12.0);
            let cy = beside.y + rng.gen_range(-12.0..12.0);
            for _ in 0..20 {
                pus.push(Point::new(
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0),
                ));
            }
        }
        for _ in 0..40 {
            let t = rng.gen_range(0.0..side);
            let out = rng.gen_range(1.0..60.0);
            pus.push(match rng.gen_range(0..4) {
                0 => Point::new(-out, t),
                1 => Point::new(side + out, t),
                2 => Point::new(t, -out),
                _ => Point::new(t, side + out),
            });
        }
        pus.extend(sus.iter().step_by(37));
        pus
    }

    #[test]
    fn adversarial_pu_fields_match_the_exact_scan() {
        // A dense grid where the clumps push slots past their thresholds
        // (the exact fallback, with pulls), and a comb spanning a square
        // four times as wide, where most of the far field is aggregated.
        let (mut fell_back, mut pulled, mut aggregated) = (0, 0, false);
        for (cols, tooth, lattice, seeds) in [(30, 1, 15, 1..3), (120, 20, 40, 1..2)] {
            let sus = su_comb(cols, tooth, Vec::new()).su_positions().to_vec();
            let side = cols as f64 * 7.0 + 2.0;
            for seed in seeds {
                let topo = su_comb(cols, tooth, adversarial_pus(side, lattice, &sus, seed));
                let all_pairs = (topo.num_receiver_slots() * topo.num_pus()) as u64;
                for epsilon in [0.1, 0.01] {
                    let params =
                        sparse_params().interference(InterferenceModel::Truncated { epsilon });
                    let (work, slots_pulled) = check_against_exact_scan(&topo, &params);
                    fell_back += work.fallback_slots;
                    pulled += slots_pulled;
                    aggregated |= work.exact_evals < all_pairs / 2;
                }
            }
        }
        assert!(
            fell_back > 0 && pulled > 0,
            "no slot took the exact fallback"
        );
        assert!(aggregated, "the bound never aggregated the far field");
    }

    #[test]
    fn degenerate_pu_layouts_match_the_exact_scan() {
        // No PUs, one PU, many PUs on one point, and PUs on one line:
        // bounding boxes of zero area or zero width.
        let stacked = vec![Point::new(40.0, 30.0); 25];
        let line = (0..60).map(|k| Point::new(k as f64 * 3.0, 20.0)).collect();
        for pus in [Vec::new(), vec![Point::new(5.0, 5.0)], stacked, line] {
            let topo = su_grid(30, pus);
            for epsilon in [0.1, 0.01] {
                let params = sparse_params().interference(InterferenceModel::Truncated { epsilon });
                check_against_exact_scan(&topo, &params);
            }
        }
    }

    #[test]
    fn loose_tight_loose_budget_chain_matches_fresh_builds() {
        let sus = su_comb(120, 20, Vec::new()).su_positions().to_vec();
        let topo = su_comb(120, 20, adversarial_pus(120.0 * 7.0 + 2.0, 40, &sus, 1));
        let loose = with_su_power(&sparse_params(), 20.0);
        let tight = with_su_power(&sparse_params(), 2.0);
        let first = Radio::customize(&topo, &loose).unwrap();
        let middle = first.recustomize(&topo, &tight).unwrap();
        assert_same_tables(&topo, &middle, &Radio::customize(&topo, &tight).unwrap());
        let last = middle.recustomize(&topo, &loose).unwrap();
        assert_same_tables(&topo, &last, &first);

        // Some slot switches paths: its bound settles it under the loose
        // budget but not under the tight one, where the exact fallback
        // runs. Tightening rebuilds (settled slots store no levels);
        // loosening again reuses the tight structure for both kinds.
        let bound = &sparse_stages(&middle).structure.bound;
        let (thr_loose, thr_tight) = (thresholds(&first), thresholds(&middle));
        assert!(
            (0..bound.len()).any(|s| thr_tight[s] < bound[s] && bound[s] <= thr_loose[s]),
            "no slot switched between the bound and the exact fallback"
        );
        let structure = |r: &Radio| sparse_stages(r).structure.clone();
        assert!(!Arc::ptr_eq(&structure(&first), &structure(&middle)));
        assert!(Arc::ptr_eq(&structure(&middle), &structure(&last)));
    }

    #[test]
    fn pu_structure_work_per_slot_stays_flat_as_the_grid_grows() {
        // Deterministic counts, not timings: a return to the all-PU scan
        // would quadruple the per-slot evaluations between these sizes.
        // About `n` SUs on a square grid and `n / 5` PUs on a coarser
        // lattice, both sensing ranges at the paper's PCR — the shape of
        // the synthetic benchmark grid.
        let sense = crn_interference::pcr::carrier_sensing_range(
            &phy(),
            crn_interference::PcrConstants::Paper,
        );
        let params = RadioParams::new(phy())
            .sense_range(sense)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 });
        let per_slot = |n: usize| {
            let cols = ((n + 1) as f64).sqrt().ceil() as usize;
            let per_side = ((n / 5) as f64).sqrt().ceil() as usize;
            let topo = su_grid(cols, pu_lattice(cols as f64 * 7.0 + 2.0, per_side));
            let radio = Radio::customize(&topo, &params).unwrap();
            let work = sparse_stages(&radio).structure.work;
            let m = topo.num_receiver_slots();
            assert!(
                work.fallback_slots * 20 <= m,
                "n={n}: {} of {m} slots took the exact fallback",
                work.fallback_slots
            );
            work.exact_evals as f64 / m as f64
        };
        let (small, large) = (per_slot(2_000), per_slot(8_000));
        assert!(
            large < 1.5 * small,
            "exact PU evaluations per slot grew from {small:.1} to {large:.1}"
        );
    }
}
