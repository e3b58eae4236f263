//! Checkpointing a trained DOT model to disk — with integrity guarantees.
//!
//! The two stages are trained separately and frozen (paper §5.2), so a
//! checkpoint is the configuration, the grid, the target statistics and the
//! two parameter sets. The experiment harness uses this to train a model
//! once and reuse it across tables.
//!
//! ## Checkpoint format v1
//!
//! ```text
//! DOTCKPT v1 crc32=xxxxxxxx len=NNNN\n   ← ASCII header line
//! {…payload json…}                       ← exactly `len` bytes
//! ```
//!
//! The CRC32 (IEEE) is computed over the payload bytes, so a truncated file
//! fails the length check and a bit-flipped one fails the CRC check *before*
//! any JSON parsing. Writes go through [`odt_obs::atomic_write`]: a temp
//! file in the target directory, synced to disk and then `rename`d into
//! place, so a crash mid-save (or a power loss right after it) can never
//! leave a half-written or empty checkpoint at the destination path.
//! Loading validates every tensor's shape and finiteness against the
//! freshly built architecture before any parameter is overwritten; failures
//! surface as a typed [`PersistError`] instead of a panic or a
//! silently-wrong model.
//!
//! The payload goes through [`odt_obs::json`]. Its schema is spelled at the
//! end of this file ([`Member`]) and, for a parameter set, in
//! [`odt_nn::serialize`], nowhere else: members are written in a fixed order
//! and read by name, an unknown one ignored, a missing or mistyped one
//! [`PersistError::Corrupt`] with its dotted path.

use crate::config::{AblationOptions, DotConfig, EstimatorKind, RobustnessOptions};
use crate::guard::{RobustnessSnapshot, RobustnessStats};
use crate::oracle::Dot;
use crate::train::{build_estimator, TrainCheckpoint, TrainingReport};
use odt_diffusion::{ConditionedDenoiser, Ddpm, DenoiserConfig, NoiseSchedule};
use odt_nn::serialize::StateDict;
use odt_nn::{state_dict, try_load_state_dict, HasParams, StateDictError};
use odt_obs::json::{self, JsonValue, ToJson};
use odt_roadnet::LngLat;
use odt_traj::GridSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::Path;

/// Magic tag of model checkpoints.
pub(crate) const CKPT_MAGIC: &str = "DOTCKPT";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is structurally damaged: bad magic, truncation, CRC
    /// mismatch, or a payload that does not parse or lacks a well-typed
    /// member (a tensor whose data does not fill its shape included).
    Corrupt {
        /// Human-readable description of what failed.
        detail: String,
    },
    /// The file is a checkpoint, but of a version this build cannot read.
    VersionMismatch {
        /// Version found in the file header (0 = legacy unversioned JSON).
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// A stored tensor's shape disagrees with the architecture the config
    /// describes.
    ShapeMismatch {
        /// Parameter name.
        param: String,
        /// Shape the rebuilt architecture expects.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
    /// A stored tensor holds infinite values (numbers beyond `f32`).
    NonFiniteParams {
        /// Parameter name.
        param: String,
        /// Number of offending elements.
        count: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PersistError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            PersistError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint version {found} unsupported (this build reads v{supported})"
            ),
            PersistError::ShapeMismatch {
                param,
                expected,
                found,
            } => write!(
                f,
                "checkpoint shape mismatch for '{param}': expected {expected:?}, found {found:?}"
            ),
            PersistError::NonFiniteParams { param, count } => {
                write!(
                    f,
                    "checkpoint parameter '{param}' holds {count} non-finite value(s)"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StateDictError> for PersistError {
    fn from(e: StateDictError) -> Self {
        match e {
            StateDictError::MissingParam { name } => PersistError::Corrupt {
                detail: format!("state dict missing parameter '{name}'"),
            },
            StateDictError::ShapeMismatch {
                name,
                expected,
                found,
            } => PersistError::ShapeMismatch {
                param: name,
                expected,
                found,
            },
            StateDictError::NonFinite { name, count } => {
                PersistError::NonFiniteParams { param: name, count }
            }
        }
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise — fast
/// enough for checkpoint-sized payloads and dependency-free.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Serialize `payload`, frame it with a `magic v1 crc32 len` header and
/// write it atomically ([`odt_obs::atomic_write`]).
pub(crate) fn write_versioned<T: Member>(
    path: &Path,
    magic: &str,
    payload: &T,
) -> Result<(), PersistError> {
    let mut body = String::new();
    let _ = payload.write(&mut body); // a `String` sink cannot fail
    write_framed(path, magic, body.as_bytes())
}

/// Frame already-serialized payload bytes with the `magic v1 crc32 len`
/// header and write them atomically.
pub(crate) fn write_framed(path: &Path, magic: &str, body: &[u8]) -> Result<(), PersistError> {
    let header = format!(
        "{magic} v{CHECKPOINT_VERSION} crc32={:08x} len={}\n",
        crc32(body),
        body.len()
    );
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(body);

    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    Ok(odt_obs::atomic_write(path, &bytes)?)
}

/// Read a file written by [`write_versioned`], verifying magic, version,
/// length and CRC before deserializing the payload.
pub(crate) fn read_versioned<T: Member>(path: &Path, magic: &str) -> Result<T, PersistError> {
    let body = read_validated_bytes(path, magic)?;
    let corrupt = |detail: String| PersistError::Corrupt { detail };
    let doc = JsonValue::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| corrupt(format!("payload json: {e}")))?;
    T::read(&doc).map_err(|path| corrupt(format!("payload member `{path}` missing or mistyped")))
}

/// Verify a versioned file's framing — magic, version, declared length,
/// CRC32 — and return the raw payload bytes *without* deserializing
/// them. The model registry uses this to refuse damaged checkpoint
/// files before anything schema-aware (or allocation-heavy) touches
/// them.
pub(crate) fn read_validated_bytes(path: &Path, magic: &str) -> Result<Vec<u8>, PersistError> {
    let bytes = std::fs::read(path)?;
    // Legacy (pre-v1) checkpoints were bare JSON objects.
    if bytes.first() == Some(&b'{') {
        return Err(PersistError::VersionMismatch {
            found: 0,
            supported: CHECKPOINT_VERSION,
        });
    }
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| PersistError::Corrupt {
            detail: "missing header line".into(),
        })?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| PersistError::Corrupt {
        detail: "header is not UTF-8".into(),
    })?;
    let mut tokens = header.split_whitespace();
    let found_magic = tokens.next().unwrap_or("");
    if found_magic != magic {
        return Err(PersistError::Corrupt {
            detail: format!("bad magic '{found_magic}' (expected '{magic}')"),
        });
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| PersistError::Corrupt {
            detail: "unparseable version".into(),
        })?;
    if version != CHECKPOINT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let mut crc_expect = None;
    let mut len_expect = None;
    for t in tokens {
        if let Some(v) = t.strip_prefix("crc32=") {
            crc_expect = u32::from_str_radix(v, 16).ok();
        } else if let Some(v) = t.strip_prefix("len=") {
            len_expect = v.parse::<usize>().ok();
        }
    }
    let (crc_expect, len_expect) = match (crc_expect, len_expect) {
        (Some(c), Some(l)) => (c, l),
        _ => {
            return Err(PersistError::Corrupt {
                detail: "header missing crc32/len".into(),
            });
        }
    };
    let body = &bytes[nl + 1..];
    if body.len() != len_expect {
        return Err(PersistError::Corrupt {
            detail: format!(
                "payload length {} disagrees with header len={len_expect} (truncated?)",
                body.len()
            ),
        });
    }
    let crc_found = crc32(body);
    if crc_found != crc_expect {
        return Err(PersistError::Corrupt {
            detail: format!("crc32 {crc_found:08x} disagrees with header crc32={crc_expect:08x}"),
        });
    }
    Ok(body.to_vec())
}

struct Checkpoint {
    cfg: DotConfig,
    grid: GridSpec,
    tt_mean: f64,
    tt_std: f64,
    stage1: StateDict,
    stage2: StateDict,
    stage1_seconds: f64,
    stage2_seconds: f64,
    stage1_final_loss: f32,
    best_val_mae: f64,
    robustness: RobustnessSnapshot,
}

impl Dot {
    /// Serialize the trained model to a checkpoint file (format v1: CRC32
    /// over the payload, atomic temp-file + rename write).
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let ckpt = Checkpoint {
            cfg: self.cfg.clone(),
            grid: self.grid,
            tt_mean: self.tt_mean,
            tt_std: self.tt_std,
            stage1: state_dict(&self.denoiser.params()),
            stage2: state_dict(&self.estimator.estimator_params()),
            stage1_seconds: self.report.stage1_seconds,
            stage2_seconds: self.report.stage2_seconds,
            stage1_final_loss: self.report.stage1_final_loss,
            best_val_mae: self.report.best_val_mae,
            robustness: self.report.robustness,
        };
        write_versioned(path, CKPT_MAGIC, &ckpt)
    }

    /// Restore a model saved with [`Dot::save`], verifying integrity
    /// (magic, version, CRC) and validating every tensor's shape and
    /// finiteness before constructing the model.
    pub fn load(path: &Path) -> Result<Dot, PersistError> {
        let ckpt: Checkpoint = read_versioned(path, CKPT_MAGIC)?;
        // Rebuild the architecture deterministically, then overwrite the
        // parameters from the checkpoint (validated before any mutation).
        let mut rng = StdRng::seed_from_u64(ckpt.cfg.seed);
        let denoiser_cfg = DenoiserConfig {
            channels: 3,
            lg: ckpt.cfg.lg,
            base_channels: ckpt.cfg.base_channels,
            depth: ckpt.cfg.l_d,
            cond_dim: ckpt.cfg.cond_dim,
            attn_max_tokens: ckpt.cfg.attn_max_tokens,
        };
        let denoiser = ConditionedDenoiser::new(&mut rng, denoiser_cfg);
        try_load_state_dict(&denoiser.params(), &ckpt.stage1)?;
        let estimator = build_estimator(&ckpt.cfg, &mut rng);
        try_load_state_dict(&estimator.estimator_params(), &ckpt.stage2)?;
        let report = TrainingReport {
            stage1_seconds: ckpt.stage1_seconds,
            stage2_seconds: ckpt.stage2_seconds,
            stage1_params: denoiser.num_params(),
            stage2_params: estimator.estimator_params().iter().map(|p| p.numel()).sum(),
            stage1_final_loss: ckpt.stage1_final_loss,
            best_val_mae: ckpt.best_val_mae,
            robustness: ckpt.robustness,
        };
        Ok(Dot {
            ddpm: Ddpm::new(NoiseSchedule::linear_scaled(ckpt.cfg.n_steps)),
            grid: ckpt.grid,
            denoiser,
            estimator,
            tt_mean: ckpt.tt_mean,
            tt_std: ckpt.tt_std,
            stats: RobustnessStats::from_snapshot(ckpt.robustness),
            report,
            cfg: ckpt.cfg,
        })
    }
}

/// A member of payload v1: how it is written, and how it is read back from
/// the parsed document. `read`'s `Err` is the dotted path, below this value,
/// of the member that is missing or mistyped (empty for this value itself).
pub(crate) trait Member: Sized {
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result;
    fn read(v: &JsonValue) -> Result<Self, String>;
}

/// A [`Member`] as the value of a [`json::Obj`] field.
struct Put<'a, T>(&'a T);

impl<T: Member> ToJson for Put<'_, T> {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.0.write(out)
    }
}

/// Member `key` of the object `obj`. Given `absent`, a member that is not
/// there, or is `null` (how JSON spells an infinite `f64`), reads as it.
fn member<T: Member>(obj: &JsonValue, key: &str, absent: Option<T>) -> Result<T, String> {
    match (obj.get(key), absent) {
        (None | Some(JsonValue::Null), Some(absent)) => Ok(absent),
        (None, None) => Err(key.into()),
        (Some(v), _) => T::read(v).map_err(|below| match below.as_str() {
            "" => key.into(),
            below => format!("{key}.{below}"),
        }),
    }
}

/// `impl Member for $ty`, a value the codec spells: [`ToJson`] writes it,
/// `$read` reads it (`None`: the value is not a `$ty`).
macro_rules! leaf_member {
    ($($ty:ty: $read:expr),* $(,)?) => {$(
        impl Member for $ty {
            fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
                self.write_json(out)
            }
            fn read(v: &JsonValue) -> Result<Self, String> {
                let read: fn(&JsonValue) -> Option<Result<$ty, String>> = $read;
                read(v).unwrap_or_else(|| Err(String::new()))
            }
        }
    )*};
}

leaf_member! {
    u8: |v| Some(Ok(v.as_u64()?.try_into().ok()?)),
    u64: |v| v.as_u64().map(Ok),
    usize: |v| Some(Ok(v.as_u64()?.try_into().ok()?)),
    f32: |v| v.as_f32().map(Ok),
    f64: |v| v.as_f64().map(Ok),
    bool: |v| v.as_bool().map(Ok),
    StateDict: |v| Some(StateDict::from_value(v)),
}

/// A variant is its name as a string (`"MVit"`).
impl Member for EstimatorKind {
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        json::Text(format_args!("{self:?}")).write_json(out)
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        let mut kinds = [Self::MVit, Self::VanillaVit, Self::Cnn].into_iter();
        let named = |kind: &Self| v.as_str() == Some(&format!("{kind:?}"));
        kinds.find(named).ok_or_else(String::new)
    }
}

/// `None` is `null`.
impl<T: Member> Member for Option<T> {
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.as_ref().map(Put).write_json(out)
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

/// `impl Member for $ty`, a struct spelled once: an object of the named
/// members, written in this order and read back by name. `name or value`
/// reads a member that is absent (or `null`) as `value`.
macro_rules! struct_member {
    ($ty:ident: $($field:ident $(or $absent:expr)?),* $(,)?) => {
        impl Member for $ty {
            fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
                json::object(out, |o| {
                    $(o.field(stringify!($field), Put(&self.$field));)*
                })
            }
            fn read(v: &JsonValue) -> Result<Self, String> {
                Ok($ty {
                    $($field: member(v, stringify!($field), None $(.or(Some($absent)))?)?,)*
                })
            }
        }
    };
}

struct_member! {
    Checkpoint: cfg, grid, tt_mean, tt_std, stage1, stage2, stage1_seconds, stage2_seconds,
    stage1_final_loss, best_val_mae or f64::INFINITY, robustness or RobustnessSnapshot::default()
}
struct_member! {
    TrainCheckpoint: stage, next_iter, cfg, grid, tt_mean, tt_std, stage1, stage2, best_state,
    best_val_mae or f64::INFINITY, stage1_seconds, stage2_seconds, stage1_final_loss, robustness
}
struct_member! {
    DotConfig: lg, n_steps, l_d, d_e, l_e, base_channels, cond_dim, attn_max_tokens, stage1_iters,
    stage1_batch, stage2_iters, stage2_batch, lr, early_stop_samples, early_stop_every, step_gamma,
    infer_candidates, ablation, robustness or RobustnessOptions::default(), seed
}
struct_member! {
    AblationOptions: condition_on_od, condition_on_t, cell_embedding, latent_cast, estimator
}
struct_member! {
    RobustnessOptions: watchdog_spike_factor, watchdog_patience, snapshot_every,
    degraded_mode_fallback
}
struct_member! {
    RobustnessSnapshot: watchdog_trips, batches_skipped, rollbacks, queries_clamped,
    queries_rejected or 0, degenerate_pits, fallbacks_taken
}
struct_member!(GridSpec: min, max, lg);
struct_member!(LngLat: lng, lat);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::train::TRAIN_MAGIC;
    use odt_traj::{Dataset, OdtInput, Split};
    use std::ops::Range;
    use std::path::PathBuf;

    /// Unique per-test checkpoint path: the fixed name used previously
    /// collided when several test binaries ran in parallel.
    fn unique_ckpt_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("odt_ckpt_{tag}_{}.json", std::process::id()))
    }

    /// The JSON body of the checkpoint at `path` plus the byte ranges of
    /// the first stage-1 tensor's `shape` and `data` array contents (the
    /// text between the brackets) — what the payload-tampering tests edit
    /// before re-framing the body with a valid CRC.
    fn first_stage1_tensor(path: &Path) -> (String, Range<usize>, Range<usize>) {
        let bytes = std::fs::read(path).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let body = String::from_utf8(bytes[nl + 1..].to_vec()).unwrap();
        let array_after = |from: usize, key: &str| {
            let start = from + body[from..].find(key).unwrap() + key.len();
            start..start + body[start..].find(']').unwrap()
        };
        let entries = body.find("\"stage1\":{\"entries\":{").unwrap();
        let shape = array_after(entries, "\"shape\":[");
        let data = array_after(shape.end, "\"data\":[");
        (body, shape, data)
    }

    /// Rewrite the first stage-1 value of the file at `path` to `1e39`,
    /// which overflows `f32` to +inf when read, and re-frame the body with a
    /// valid CRC, so only a finiteness check can catch it.
    pub(crate) fn poison_first_stage1_value(path: &Path, magic: &str) {
        let (body, _shape, data) = first_stage1_tensor(path);
        let first = data.start + body[data.clone()].find(',').unwrap_or(data.len());
        let poisoned = format!("{}1e39{}", &body[..data.start], &body[first..]);
        write_framed(path, magic, poisoned.as_bytes()).unwrap();
    }

    fn tiny_trained() -> (Dataset, Dot) {
        let mut sim_cfg = odt_traj::sim::CitySimConfig::chengdu_like();
        sim_cfg.nx = 8;
        sim_cfg.ny = 8;
        let data = Dataset::simulated(sim_cfg, 150, 8, 11);
        let cfg = DotConfig {
            n_steps: 6,
            stage1_iters: 6,
            stage2_iters: 12,
            early_stop_samples: 2,
            early_stop_every: 10,
            ..DotConfig::tiny()
        };
        let model = Dot::train(cfg, &data, |_| {});
        (data, model)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let (data, model) = tiny_trained();
        let path = unique_ckpt_path("round_trip");
        model.save(&path).unwrap();
        // The v1 payload: these members, in this order.
        let body = read_validated_bytes(&path, CKPT_MAGIC).unwrap();
        let Ok(JsonValue::Obj(members)) = JsonValue::parse(std::str::from_utf8(&body).unwrap())
        else {
            panic!("the payload is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "cfg",
                "grid",
                "tt_mean",
                "tt_std",
                "stage1",
                "stage2",
                "stage1_seconds",
                "stage2_seconds",
                "stage1_final_loss",
                "best_val_mae",
                "robustness"
            ]
        );
        let restored = Dot::load(&path).unwrap();
        assert_eq!(restored.cfg, model.cfg);
        // Identical predictions on a fixed PiT.
        let t = &data.split(Split::Test)[0];
        let pit = odt_traj::Pit::from_trajectory(t, &data.grid);
        assert_eq!(
            model.estimate_from_pit(&pit),
            restored.estimate_from_pit(&pit)
        );
        // Identical PiT inference under the same seed.
        let odt = OdtInput::from_trajectory(t);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let a = model.infer_pit(&odt, &mut r1);
        let b = restored.infer_pit(&odt, &mut r2);
        assert_eq!(a.tensor().data(), b.tensor().data());
        // Training diagnostics survive the round trip instead of
        // resurrecting as NaN.
        assert_eq!(
            model.report().stage1_final_loss.to_bits(),
            restored.report().stage1_final_loss.to_bits()
        );
        assert_eq!(
            model.report().best_val_mae.to_bits(),
            restored.report().best_val_mae.to_bits()
        );
        assert!(restored.report().stage1_final_loss.is_finite());
        assert!(restored.report().best_val_mae.is_finite());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_is_rejected_as_corrupt() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("truncate");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
        match Dot::load(&path) {
            Err(PersistError::Corrupt { detail }) => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_payload_is_rejected_by_crc() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("bitflip");
        model.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit well inside the parameter payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        match Dot::load(&path) {
            Err(PersistError::Corrupt { detail }) => {
                assert!(detail.contains("crc32"), "{detail}");
            }
            other => panic!("expected Corrupt (crc), got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_and_legacy_json_are_version_mismatches() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("version");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        std::fs::write(&path, text.replacen("DOTCKPT v1", "DOTCKPT v9", 1)).unwrap();
        match Dot::load(&path) {
            Err(PersistError::VersionMismatch {
                found: 9,
                supported,
            }) => {
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {:?}", other.err()),
        }
        // A legacy bare-JSON checkpoint reads as version 0.
        std::fs::write(&path, "{\"cfg\":{}}").unwrap();
        assert!(matches!(
            Dot::load(&path),
            Err(PersistError::VersionMismatch { found: 0, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_parameter_payload_is_rejected_before_model_construction() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("nanparam");
        model.save(&path).unwrap();
        poison_first_stage1_value(&path, CKPT_MAGIC);
        match Dot::load(&path) {
            Err(PersistError::NonFiniteParams { count, .. }) => assert!(count >= 1),
            other => panic!("expected NonFiniteParams, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("shape");
        model.save(&path).unwrap();
        // Drop one element from the first stage-1 tensor and shrink its
        // shape so the tensor itself stays internally consistent.
        let (body, shape, data) = first_stage1_tensor(&path);
        let mut elems: Vec<&str> = body[data.clone()].split(',').collect();
        elems.pop();
        let reshaped = format!(
            "{}{}{}{}{}",
            &body[..shape.start],
            elems.len(),
            &body[shape.end..data.start],
            elems.join(","),
            &body[data.end..]
        );
        write_framed(&path, CKPT_MAGIC, reshaped.as_bytes()).unwrap();
        assert!(matches!(
            Dot::load(&path),
            Err(PersistError::ShapeMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A CRC-valid payload whose tensor data does not fill its shape: the
    /// shape still matches the architecture, so only the reader can tell.
    #[test]
    fn data_that_does_not_fill_its_shape_is_corrupt() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("short_data");
        model.save(&path).unwrap();
        let (body, _shape, data) = first_stage1_tensor(&path);
        let last_comma = data.start + body[data.clone()].rfind(',').unwrap();
        let short = format!("{}{}", &body[..last_comma], &body[data.end..]);
        write_framed(&path, CKPT_MAGIC, short.as_bytes()).unwrap();
        match Dot::load(&path) {
            Err(PersistError::Corrupt { detail }) => {
                assert!(detail.contains("`stage1.entries."), "{detail}");
                assert!(detail.contains(".data ("), "{detail}");
            }
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    fn config_json(cfg: &DotConfig) -> String {
        let mut doc = String::new();
        cfg.write(&mut doc).unwrap();
        doc
    }

    #[test]
    fn config_document_is_pinned_and_u64_seeds_survive() {
        let mut cfg = DotConfig::tiny();
        assert_eq!(
            config_json(&cfg),
            concat!(
                r#"{"lg":8,"n_steps":8,"l_d":2,"d_e":16,"l_e":2,"base_channels":4,"cond_dim":16,"#,
                r#""attn_max_tokens":128,"stage1_iters":15,"stage1_batch":8,"stage2_iters":30,"#,
                r#""stage2_batch":8,"lr":0.0010000000474974513,"early_stop_samples":3,"#,
                r#""early_stop_every":15,"step_gamma":2,"infer_candidates":3,"ablation":{"#,
                r#""condition_on_od":true,"condition_on_t":true,"cell_embedding":true,"#,
                r#""latent_cast":true,"estimator":"MVit"},"robustness":{"#,
                r#""watchdog_spike_factor":25,"watchdog_patience":3,"snapshot_every":50,"#,
                r#""degraded_mode_fallback":true},"seed":7}"#
            )
        );
        cfg.ablation.estimator = EstimatorKind::VanillaVit;
        cfg.lr = 3.0e-4;
        for seed in [u64::MAX, (1 << 53) + 1] {
            cfg.seed = seed;
            let doc = JsonValue::parse(&config_json(&cfg)).unwrap();
            assert_eq!(DotConfig::read(&doc).unwrap(), cfg);
        }
    }

    /// A hand-typed in-training checkpoint in `serde_json`'s spelling:
    /// shortest `f32` digits, `2.0` for a whole `f64`, exponents, `null`
    /// for `None` and for an infinite `f64`, and neither of the members
    /// that are younger than format v1.
    #[test]
    fn serde_era_document_still_loads() {
        let body = concat!(
            r#"{"stage":1,"next_iter":6,"cfg":{"lg":8,"n_steps":8,"l_d":2,"d_e":16,"l_e":2,"#,
            r#""base_channels":4,"cond_dim":16,"attn_max_tokens":128,"stage1_iters":15,"#,
            r#""stage1_batch":8,"stage2_iters":30,"stage2_batch":8,"lr":0.001,"#,
            r#""early_stop_samples":3,"early_stop_every":15,"step_gamma":2.0,"#,
            r#""infer_candidates":3,"ablation":{"condition_on_od":true,"condition_on_t":true,"#,
            r#""cell_embedding":true,"latent_cast":true,"estimator":"MVit"},"seed":7},"#,
            r#""grid":{"min":{"lng":104.0,"lat":30.5},"max":{"lng":104.25,"lat":30.75},"lg":8},"#,
            r#""tt_mean":612.5,"tt_std":1e2,"#,
            r#""stage1":{"entries":{"w":{"shape":[2],"data":[0.1,-1e-5]}}},"stage2":null,"#,
            r#""best_state":null,"best_val_mae":null,"stage1_seconds":1.5,"stage2_seconds":0.0,"#,
            r#""stage1_final_loss":0.25,"robustness":{"watchdog_trips":2,"batches_skipped":1,"#,
            r#""rollbacks":0,"queries_clamped":0,"degenerate_pits":0,"fallbacks_taken":0},"#,
            r#""written_by":"an older build"}"#
        );
        let path = unique_ckpt_path("serde_era");
        write_framed(&path, TRAIN_MAGIC, body.as_bytes()).unwrap();
        let tc = TrainCheckpoint::load(&path).unwrap();
        assert_eq!((tc.stage, tc.next_iter), (1, 6));
        assert_eq!(tc.cfg, DotConfig::tiny());
        assert_eq!(tc.cfg.robustness, RobustnessOptions::default());
        assert_eq!(
            (tc.grid.min.lng, tc.grid.max.lat, tc.grid.lg),
            (104.0, 30.75, 8)
        );
        assert_eq!((tc.tt_mean, tc.tt_std), (612.5, 100.0));
        let w = tc.stage1.get("w").unwrap();
        assert_eq!((w.shape(), w.data()), (&[2][..], &[0.1f32, -1e-5][..]));
        assert!(tc.stage2.is_none() && tc.best_state.is_none());
        assert_eq!(tc.best_val_mae, f64::INFINITY);
        assert_eq!((tc.stage1_seconds, tc.stage1_final_loss), (1.5, 0.25));
        let counters = RobustnessSnapshot {
            watchdog_trips: 2,
            batches_skipped: 1,
            ..Default::default()
        };
        assert_eq!(tc.robustness, counters);

        // A member that is missing, or of the wrong type, is named.
        for (from, to, path_named) in [
            (r#""l_d":2,"#, "", "`cfg.l_d`"),
            (
                r#""estimator":"MVit""#,
                r#""estimator":"Mvit""#,
                "`cfg.ablation.estimator`",
            ),
            (r#""lat":30.5"#, r#""lat":"30.5""#, "`grid.min.lat`"),
            (r#""tt_mean":612.5"#, r#""tt_mean":null"#, "`tt_mean`"),
            (r#""stage2":null,"#, "", "`stage2`"),
            (
                r#""rollbacks":0,"#,
                r#""rollbacks":-1,"#,
                "`robustness.rollbacks`",
            ),
        ] {
            assert!(body.contains(from), "{from}");
            write_framed(&path, TRAIN_MAGIC, body.replacen(from, to, 1).as_bytes()).unwrap();
            match TrainCheckpoint::load(&path) {
                Err(PersistError::Corrupt { detail }) => {
                    assert!(detail.contains(path_named), "{detail}");
                }
                other => panic!("{path_named}: expected Corrupt, got {:?}", other.err()),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let (_data, model) = tiny_trained();
        let path = unique_ckpt_path("atomic");
        model.save(&path).unwrap();
        let tmp = format!("{}.tmp.{}", path.display(), std::process::id());
        assert!(!Path::new(&tmp).exists(), "temp file must be renamed away");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
