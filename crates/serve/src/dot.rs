//! The production [`RungExecutor`]: ladder rungs mapped onto [`Dot`].
//!
//! | Rung                  | Oracle entry point                            |
//! |-----------------------|-----------------------------------------------|
//! | [`Rung::Cached`]      | The estimate cache (fresh entry) — no         |
//! |                       | diffusion, just a lookup stashed at probe     |
//! | [`Rung::Full`]        | `estimate_sampled(Ddpm)` — full stochastic    |
//! |                       | sampling with candidate selection             |
//! | [`Rung::Ddim`]        | `estimate_sampled(Ddim(8))`                   |
//! | [`Rung::DdimReduced`] | `estimate_sampled(Ddim(3))`                   |
//! | [`Rung::CachedStale`] | The estimate cache (stale-grace entry)        |
//! | [`Rung::Fallback`]    | `estimate_prior` — the model-free haversine   |
//! |                       | prior, no diffusion at all                    |
//!
//! The three model rows are data (`MODEL_SAMPLERS`); the rest of what the
//! stack knows about a rung is its row of [`crate::ladder::LADDER`].
//!
//! Admission uses [`Dot::sanitize_strict`] when `strict_admission` is on:
//! a query more than one grid-span outside the region is refused with a
//! typed reason (and counted in the oracle's `RobustnessStats`) instead
//! of being silently clamped to the boundary.
//!
//! **Caching.** With a cache attached ([`DotExecutor::with_cache`]), the
//! frontend's per-request probe performs the lookup and *stashes* the
//! found value; a later `execute` on a cache rung returns the stashed
//! value bit-identically (property-tested) — the entry filled from
//! `estimate_batch` is exactly what the cached rung serves. Model-rung
//! answers are written through into the cache under TinyLFU admission, so
//! real traffic keeps the hot set warm; every probe also feeds the shared
//! [`HotTracker`] the background [`crate::cache::Prewarmer`] drains.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use odt_core::{Dot, ModelRegistry, PersistError, PitSampler, RegistryError};
use odt_traj::OdtInput;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{CacheLookup, EstimateCache, HotTracker, OdKey};
use crate::chaos::{ChaosConfig, ChaosExecutor};
use crate::frontend::{CacheProbe, FrontendConfig, RungExecutor, ServeFrontend};
use crate::ladder::Rung;
use crate::swap::{SwapError, SwapHost};

/// The hot-swappable model slot: which [`Dot`] the executor serves *right
/// now*, plus its registry version. Swapping is a single `Cell` store on
/// the dispatcher thread — an in-flight request keeps the reference it
/// already read; the next request sees the new model. Models are
/// intentionally leaked on install (`&'static Dot`): a process sees a
/// handful of swaps over its lifetime, and leaking sidesteps any
/// tear-down race with requests still holding the old reference.
pub struct ModelSlot {
    current: Cell<&'static Dot>,
    version: Cell<u64>,
    swaps: Cell<u64>,
}

impl ModelSlot {
    /// A slot serving `model` as registry version `version`.
    pub fn new(model: &'static Dot, version: u64) -> Rc<ModelSlot> {
        Rc::new(ModelSlot {
            current: Cell::new(model),
            version: Cell::new(version),
            swaps: Cell::new(0),
        })
    }

    /// [`ModelSlot::new`] over an owned model: leaks it to get the
    /// `'static` lifetime the slot needs.
    pub fn from_model(model: Dot, version: u64) -> Rc<ModelSlot> {
        ModelSlot::new(Box::leak(Box::new(model)), version)
    }

    /// The model currently being served.
    pub fn model(&self) -> &'static Dot {
        self.current.get()
    }

    /// Registry version of the serving model.
    pub fn version(&self) -> u64 {
        self.version.get()
    }

    /// How many times [`ModelSlot::install`] has replaced the model.
    pub fn swaps(&self) -> u64 {
        self.swaps.get()
    }

    /// Replace the serving model. Serving never pauses: requests racing
    /// the install get either the old or the new model, both valid.
    pub fn install(&self, model: &'static Dot, version: u64) {
        self.current.set(model);
        self.version.set(version);
        self.swaps.set(self.swaps.get() + 1);
        odt_obs::gauge("serve.model.version").set(version as f64);
    }
}

/// Where an executor's model comes from: a plain borrow (the pre-swap
/// API, still what tests and benches use) or a shared hot-swappable
/// [`ModelSlot`]. `From` impls keep every existing `&Dot` call site
/// compiling unchanged.
pub enum ModelSource<'a> {
    /// A fixed model borrowed for the executor's lifetime.
    Fixed(&'a Dot),
    /// The process-wide swappable slot.
    Slot(Rc<ModelSlot>),
}

impl<'a> ModelSource<'a> {
    /// The model to serve *this* call with. Deliberately borrows only
    /// the source (not the executor), so callers can hold it alongside
    /// `&mut` executor state.
    pub fn model(&self) -> &'a Dot {
        match self {
            ModelSource::Fixed(m) => m,
            ModelSource::Slot(slot) => slot.model(),
        }
    }
}

impl<'a> From<&'a Dot> for ModelSource<'a> {
    fn from(model: &'a Dot) -> Self {
        ModelSource::Fixed(model)
    }
}

impl<'a> From<Rc<ModelSlot>> for ModelSource<'a> {
    fn from(slot: Rc<ModelSlot>) -> Self {
        ModelSource::Slot(slot)
    }
}

/// The sampler behind each model rung, ladder order: `Full` is Algorithm 1
/// verbatim, each rung below it a cheaper DDIM (step counts above the
/// model's `N` are clamped to it by the oracle).
const MODEL_SAMPLERS: [(Rung, PitSampler); 3] = [
    (Rung::Full, PitSampler::Ddpm),
    (Rung::Ddim, PitSampler::Ddim(8)),
    (Rung::DdimReduced, PitSampler::Ddim(3)),
];

/// Admission policy and seeding of a [`DotExecutor`].
#[derive(Copy, Clone, Debug)]
pub struct DotFrontendConfig {
    /// Refuse far-out-of-region queries via [`Dot::sanitize_strict`]
    /// instead of clamping them.
    pub strict_admission: bool,
    /// Seed for the executor's sampling RNG.
    pub rng_seed: u64,
}

impl Default for DotFrontendConfig {
    fn default() -> Self {
        DotFrontendConfig {
            strict_admission: true,
            rng_seed: 0x0d07,
        }
    }
}

/// The value a successful cache probe stashed for the rest of the request.
#[derive(Copy, Clone, Debug)]
struct StashedHit {
    seconds: f64,
    age_us: u64,
    fresh: bool,
}

/// The cache attachment: the cache itself plus the shared hot-key tracker
/// the prewarmer reads.
struct CacheWiring {
    cache: Arc<EstimateCache>,
    hot: Arc<Mutex<HotTracker<OdtInput>>>,
    stash: Option<StashedHit>,
    /// Epoch for the cache's µs clock (the owning frontend's `now_us` is
    /// not visible from inside the executor, so the executor keeps its
    /// own — both are arbitrary-origin monotonic clocks).
    epoch: std::time::Instant,
}

impl CacheWiring {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// [`RungExecutor`] over a trained (or loaded) [`Dot`] oracle — either a
/// fixed borrow or a hot-swappable [`ModelSlot`].
pub struct DotExecutor<'a> {
    source: ModelSource<'a>,
    cfg: DotFrontendConfig,
    rng: StdRng,
    cache: Option<CacheWiring>,
}

impl<'a> DotExecutor<'a> {
    /// An executor serving `model` with the given rung mapping (no cache:
    /// the cache rungs stay unusable, exactly the pre-cache ladder).
    /// Accepts `&Dot` (fixed model) or `Rc<ModelSlot>` (hot-swappable).
    pub fn new(model: impl Into<ModelSource<'a>>, cfg: DotFrontendConfig) -> Self {
        DotExecutor {
            source: model.into(),
            rng: StdRng::seed_from_u64(cfg.rng_seed),
            cfg,
            cache: None,
        }
    }

    /// Attach an estimate cache and the shared hot-key tracker, enabling
    /// the [`Rung::Cached`] / [`Rung::CachedStale`] rungs.
    pub fn with_cache(
        mut self,
        cache: Arc<EstimateCache>,
        hot: Arc<Mutex<HotTracker<OdtInput>>>,
    ) -> Self {
        self.cache = Some(CacheWiring {
            cache,
            hot,
            stash: None,
            epoch: std::time::Instant::now(),
        });
        self
    }

    /// The oracle currently being served (re-read from the slot each
    /// call when the source is hot-swappable).
    pub fn model(&self) -> &'a Dot {
        self.source.model()
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<EstimateCache>> {
        self.cache.as_ref().map(|w| &w.cache)
    }

    /// The cache key for a query on this model's serving grid.
    pub fn cache_key(&self, query: &OdtInput) -> Option<OdKey> {
        let wiring = self.cache.as_ref()?;
        let grid = self.source.model().grid();
        let (orow, ocol) = grid.cell_of(query.origin);
        let (drow, dcol) = grid.cell_of(query.dest);
        Some(wiring.cache.key_for(
            grid.flat_index(orow, ocol) as u32,
            grid.flat_index(drow, dcol) as u32,
            query.second_of_day(),
        ))
    }
}

impl RungExecutor for DotExecutor<'_> {
    type Query = OdtInput;

    fn admit(&mut self, query: &OdtInput) -> Result<(), String> {
        if !self.cfg.strict_admission {
            return Ok(());
        }
        self.source
            .model()
            .sanitize_strict(query)
            .map(|_| ())
            .map_err(|reason| reason.to_string())
    }

    fn supports(&self, rung: Rung) -> bool {
        !rung.is_cache() || self.cache.is_some()
    }

    fn probe(&mut self, query: &OdtInput) -> CacheProbe {
        let Some(key) = self.cache_key(query) else {
            return CacheProbe::Miss;
        };
        let wiring = self.cache.as_mut().expect("cache_key implies wiring");
        let now = wiring.now_us();
        wiring.hot.lock().unwrap().touch(key, query);
        match wiring.cache.lookup(key, now) {
            CacheLookup::Fresh { seconds, age_us } => {
                wiring.stash = Some(StashedHit {
                    seconds,
                    age_us,
                    fresh: true,
                });
                CacheProbe::Fresh
            }
            CacheLookup::Stale { seconds, age_us } => {
                wiring.stash = Some(StashedHit {
                    seconds,
                    age_us,
                    fresh: false,
                });
                CacheProbe::Stale
            }
            CacheLookup::Miss => {
                wiring.stash = None;
                CacheProbe::Miss
            }
        }
    }

    fn execute(&mut self, rung: Rung, query: &OdtInput) -> Result<f64, String> {
        if rung.is_cache() {
            let wiring = self
                .cache
                .as_mut()
                .ok_or_else(|| "cache rung without a cache".to_string())?;
            let hit = wiring
                .stash
                .ok_or_else(|| "cache rung without a stashed probe hit".to_string())?;
            if rung == Rung::Cached && !hit.fresh {
                return Err("stale entry offered to the fresh rung".to_string());
            }
            wiring.cache.note_served(hit.age_us, hit.fresh);
            return Ok(hit.seconds);
        }
        // `ModelSource::model` hands back `&'a Dot`, untied to `self`,
        // so it can be held across the `&mut self.rng` borrows below.
        let model = self.source.model();
        let est = match MODEL_SAMPLERS.iter().find(|(r, _)| *r == rung) {
            Some(&(_, sampler)) => model.estimate_sampled(query, sampler, &mut self.rng),
            None if rung.is_terminal() => model.estimate_prior(query),
            None => return Err(format!("no sampler for rung {}", rung.name())),
        };
        // Write model-backed answers through into the cache (TinyLFU
        // admission applies); the model-free prior is never cached — the
        // stale tier must stay strictly better than the fallback.
        if !rung.is_terminal() && est.seconds.is_finite() {
            if let Some(key) = self.cache_key(query) {
                let wiring = self.cache.as_ref().expect("cache_key implies wiring");
                wiring.cache.insert(key, est.seconds, wiring.now_us());
            }
        }
        Ok(est.seconds)
    }
}

/// Convenience constructor: a complete deadline-aware frontend over `model`
/// with a chaos layer (pass [`ChaosConfig::quiet`] for production use — the
/// injector then never fires).
pub fn dot_frontend<'a>(
    model: impl Into<ModelSource<'a>>,
    dot_cfg: DotFrontendConfig,
    frontend_cfg: FrontendConfig,
    chaos: ChaosConfig,
) -> ServeFrontend<ChaosExecutor<DotExecutor<'a>>> {
    let exec = ChaosExecutor::new(DotExecutor::new(model, dot_cfg), chaos);
    ServeFrontend::new(exec, frontend_cfg)
}

/// [`dot_frontend`] with an estimate cache attached: the cache rungs come
/// alive, probes feed `hot`, and model answers write through into `cache`.
pub fn dot_frontend_cached<'a>(
    model: impl Into<ModelSource<'a>>,
    dot_cfg: DotFrontendConfig,
    frontend_cfg: FrontendConfig,
    chaos: ChaosConfig,
    cache: Arc<EstimateCache>,
    hot: Arc<Mutex<HotTracker<OdtInput>>>,
) -> ServeFrontend<ChaosExecutor<DotExecutor<'a>>> {
    let exec = ChaosExecutor::new(
        DotExecutor::new(model, dot_cfg).with_cache(cache, hot),
        chaos,
    );
    ServeFrontend::new(exec, frontend_cfg)
}

/// Pacing and sampling for the DOT swap host's shadow phase.
#[derive(Clone, Copy, Debug)]
pub struct DotSwapHostConfig {
    /// Holdout pairs scored per shadow tick (candidate + serving each).
    pub batch: usize,
    /// DDIM steps used for shadow predictions — matches the serving
    /// ladder's fast path so the gate compares like with like.
    pub ddim_steps: usize,
    /// Seed for the shadow-sampling RNG.
    pub rng_seed: u64,
}

impl Default for DotSwapHostConfig {
    fn default() -> Self {
        DotSwapHostConfig {
            batch: 8,
            ddim_steps: 8,
            rng_seed: 0x5A4B,
        }
    }
}

/// A candidate checkpoint that has passed load + shape validation and
/// is being shadow-scored.
pub struct LoadedCandidate {
    model: Dot,
    path: PathBuf,
}

/// The production [`SwapHost`]: validates candidates against the
/// serving grid, shadow-scores them on a frozen ground-truth holdout,
/// and promotes through the [`ModelRegistry`] + [`ModelSlot`] +
/// estimate-cache invalidation.
pub struct DotSwapHost {
    registry: ModelRegistry,
    slot: Rc<ModelSlot>,
    holdout: Vec<(OdtInput, f64)>,
    cursor: usize,
    cache: Option<Arc<EstimateCache>>,
    cfg: DotSwapHostConfig,
    rng: StdRng,
}

impl DotSwapHost {
    /// A host promoting into `registry` and `slot`, shadow-scoring on
    /// `holdout` pairs of `(query, actual_seconds)`. Pass the serving
    /// estimate cache so promotion invalidates stale entries.
    pub fn new(
        registry: ModelRegistry,
        slot: Rc<ModelSlot>,
        holdout: Vec<(OdtInput, f64)>,
        cache: Option<Arc<EstimateCache>>,
        cfg: DotSwapHostConfig,
    ) -> Self {
        let holdout: Vec<_> = holdout
            .into_iter()
            .filter(|(_, actual)| actual.is_finite() && *actual > 0.0)
            .collect();
        DotSwapHost {
            registry,
            slot,
            holdout,
            cursor: 0,
            cache,
            rng: StdRng::seed_from_u64(cfg.rng_seed),
            cfg: DotSwapHostConfig {
                batch: cfg.batch.max(1),
                ..cfg
            },
        }
    }

    /// The slot this host promotes into.
    pub fn slot(&self) -> &Rc<ModelSlot> {
        &self.slot
    }

    /// The registry this host promotes through.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    fn map_registry_err(e: RegistryError) -> SwapError {
        match e {
            RegistryError::Persist(p) => Self::map_persist_err(p),
            other => SwapError::Load(other.to_string()),
        }
    }

    fn map_persist_err(e: PersistError) -> SwapError {
        match e {
            PersistError::Corrupt { .. }
            | PersistError::NonFiniteParams { .. }
            | PersistError::VersionMismatch { .. } => SwapError::Corrupt(e.to_string()),
            PersistError::ShapeMismatch { .. } => SwapError::ShapeMismatch(e.to_string()),
            other => SwapError::Load(other.to_string()),
        }
    }
}

impl SwapHost for DotSwapHost {
    type Model = LoadedCandidate;

    fn load(&mut self, path: &str) -> Result<LoadedCandidate, SwapError> {
        let path = Path::new(path);
        // Cheap framing gate first: a corrupt file never reaches model
        // construction.
        self.registry
            .validate_file(path)
            .map_err(Self::map_registry_err)?;
        let model = Dot::load(path).map_err(Self::map_persist_err)?;
        // The serving grid is the process's contract with its shard:
        // a candidate on a different grid would silently re-bucket
        // every query, so refuse it here.
        let serving = self.slot.model().grid();
        let cand = model.grid();
        let bbox_matches = (cand.min.lng - serving.min.lng).abs() < 1e-9
            && (cand.min.lat - serving.min.lat).abs() < 1e-9
            && (cand.max.lng - serving.max.lng).abs() < 1e-9
            && (cand.max.lat - serving.max.lat).abs() < 1e-9;
        if cand.lg != serving.lg || !bbox_matches {
            return Err(SwapError::ShapeMismatch(format!(
                "candidate grid lg={} bbox=({:.4},{:.4})-({:.4},{:.4}) \
                 vs serving lg={} bbox=({:.4},{:.4})-({:.4},{:.4})",
                cand.lg,
                cand.min.lng,
                cand.min.lat,
                cand.max.lng,
                cand.max.lat,
                serving.lg,
                serving.min.lng,
                serving.min.lat,
                serving.max.lng,
                serving.max.lat,
            )));
        }
        Ok(LoadedCandidate {
            model,
            path: path.to_path_buf(),
        })
    }

    fn shadow_batch(&mut self, candidate: &mut LoadedCandidate) -> (f64, f64, usize) {
        if self.holdout.is_empty() {
            return (0.0, 0.0, 0);
        }
        let n = self.cfg.batch.min(self.holdout.len());
        let sampler = PitSampler::Ddim(self.cfg.ddim_steps);
        let serving = self.slot.model();
        let (mut cand_sum, mut serving_sum) = (0.0, 0.0);
        for i in 0..n {
            let (q, actual) = &self.holdout[(self.cursor + i) % self.holdout.len()];
            let cand_pred = candidate.model.estimate_sampled(q, sampler, &mut self.rng);
            let serving_pred = serving.estimate_sampled(q, sampler, &mut self.rng);
            cand_sum += (cand_pred.seconds - actual).abs();
            serving_sum += (serving_pred.seconds - actual).abs();
        }
        self.cursor = (self.cursor + n) % self.holdout.len();
        (cand_sum, serving_sum, n)
    }

    fn promote(&mut self, candidate: LoadedCandidate) -> Result<u64, SwapError> {
        // Registry first: if the copy/rename fails, serving is untouched.
        let version = self
            .registry
            .promote_file(&candidate.path)
            .map_err(Self::map_registry_err)?;
        // Leak the candidate for the slot's `'static` contract — bounded
        // by the handful of successful swaps a process ever performs.
        self.slot
            .install(Box::leak(Box::new(candidate.model)), version);
        if let Some(cache) = &self.cache {
            // Cached estimates came from the old model; start clean.
            cache.invalidate_all("model_swap");
        }
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{RungKind, LADDER};

    #[test]
    fn sampler_table_covers_exactly_the_model_rungs_cheaper_downwards() {
        let model_rungs: Vec<Rung> = LADDER
            .iter()
            .filter(|row| row.kind == RungKind::Model)
            .map(|row| row.rung)
            .collect();
        let sampled: Vec<Rung> = MODEL_SAMPLERS.iter().map(|&(rung, _)| rung).collect();
        assert_eq!(
            sampled, model_rungs,
            "one sampler per model rung, ladder order"
        );
        assert_eq!(MODEL_SAMPLERS[0], (Rung::Full, PitSampler::Ddpm));
        let ddim_steps: Vec<usize> = MODEL_SAMPLERS[1..]
            .iter()
            .map(|&(rung, sampler)| match sampler {
                PitSampler::Ddim(k) => k,
                PitSampler::Ddpm => panic!("{rung:?} below Full must be a DDIM rung"),
            })
            .collect();
        assert!(
            ddim_steps.windows(2).all(|w| w[0] > w[1]) && ddim_steps.iter().all(|&k| k >= 1),
            "DDIM step counts must strictly decrease down the ladder: {ddim_steps:?}"
        );
    }
}
