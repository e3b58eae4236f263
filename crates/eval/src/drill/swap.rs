//! The corrupt-swap drill: a registry-backed hot-swap plane over the drill
//! oracle, the controller ticked to each conclusion with a serving wave
//! between every tick.

use super::{Candidates, DrillCtx, DrillOutcome};
use odt_core::{Dot, DotConfig, ModelRegistry};
use odt_serve::{
    dot_frontend, ChaosConfig, ChaosExecutor, DotExecutor, DotFrontendConfig, DotSwapHost,
    DotSwapHostConfig, FrontendConfig, ModelSlot, Response, ServeFrontend, SwapConfig,
    SwapController, SwapError, SwapOutcome,
};
use odt_traj::{Dataset, OdtInput};

type SlotFrontend = ServeFrontend<ChaosExecutor<DotExecutor<'static>>>;

/// Serve one wave; how many of its requests were not answered `Served`
/// with a finite, non-negative estimate.
fn unanswered(fe: &mut SlotFrontend, wave: &[OdtInput]) -> u64 {
    let out = fe.process_wave(wave.iter().map(|q| (*q, None)));
    let answered = out.iter().filter(
        |r| matches!(r, Response::Served { seconds, .. } if seconds.is_finite() && *seconds >= 0.0),
    );
    (wave.len() - answered.count()) as u64
}

/// Tick the controller to a conclusion, serving a wave between every
/// tick; any request not answered counts as an interruption.
fn drive_swap(
    ctrl: &mut SwapController<DotSwapHost>,
    fe: &mut SlotFrontend,
    wave: &[OdtInput],
    interruptions: &mut u64,
) -> Option<SwapOutcome> {
    for _ in 0..300 {
        if let Some(outcome) = ctrl.tick() {
            return Some(outcome);
        }
        *interruptions += unanswered(fe, wave);
    }
    None
}

fn outcome_code(out: &Option<SwapOutcome>) -> String {
    match out {
        Some(SwapOutcome::Rejected(e)) => e.code().to_string(),
        Some(SwapOutcome::Promoted { version, .. }) => format!("promoted v{version}"),
        None => "no_conclusion".to_string(),
    }
}

/// A corrupt-CRC candidate, a wrong-grid candidate and a drift-failing
/// candidate must each be refused with their typed code while waves keep
/// serving; a good candidate must then promote, all with zero interrupted
/// requests.
pub(super) fn cluster_corrupt_swap(ctx: &DrillCtx) -> DrillOutcome {
    let dir = std::env::temp_dir().join(format!("odt_swap_drill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("swap drill temp dir");
    let registry = ModelRegistry::open(dir.join("registry")).expect("swap drill registry");
    // Serve a *loaded* copy so the drill also exercises the load path. A
    // registry that cannot be written (a full or read-only temp dir) leaves
    // nothing to swap; that fails this drill and leaves the drills after it
    // their run.
    let published = registry
        .publish(&ctx.oracle.model)
        .and_then(|v1| Ok((v1, registry.load_current()?)));
    let (v1, (v, serving)) = match published {
        Ok(published) => published,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return DrillOutcome::failed(format!(
                "the drill oracle could not be published and reloaded: {e}"
            ));
        }
    };
    let mut violations: Vec<String> = Vec::new();
    if v1 != 1 {
        violations.push(format!("a fresh registry published v{v1}, want v1"));
    }
    let good = dir.join("cand_good.dotckpt");
    std::fs::copy(registry.version_path(v1), &good).expect("staging the good candidate");
    let slot = ModelSlot::from_model(serving, v);

    let mut fe: SlotFrontend = dot_frontend(
        slot.clone(),
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(ctx.seed),
    );
    let queries = &ctx.oracle.queries;
    let wave = &queries[..queries.len().min(if ctx.quick { 3 } else { 6 })];
    fe.warmup(&wave[..2.min(wave.len())]);

    let host_cfg = DotSwapHostConfig {
        batch: 4,
        ddim_steps: 3,
        rng_seed: ctx.seed ^ 0x51A9,
    };
    let make_ctrl = |gate: SwapConfig| {
        SwapController::new(
            DotSwapHost::new(
                registry.clone(),
                slot.clone(),
                ctx.oracle.holdout.clone(),
                None,
                host_cfg,
            ),
            gate,
        )
    };
    let gate = SwapConfig {
        shadow_samples: 12,
        ..SwapConfig::default()
    };
    let mut interruptions = 0u64;
    // A rejection leaves the slot and the registry's CURRENT where they were.
    let untouched = |violations: &mut Vec<String>| {
        let current = registry.current_version().ok().flatten();
        if slot.version() != v1 || slot.swaps() != 0 || current != Some(v1) {
            violations.push(format!(
                "rejections touched serving: slot at v{} after {} swap(s), CURRENT {current:?}",
                slot.version(),
                slot.swaps()
            ));
        }
    };

    // 1. Corrupt candidate: one flipped payload bit, the CRC gate refuses.
    let corrupt = dir.join("cand_corrupt.dotckpt");
    let mut bytes = std::fs::read(&good).expect("reading the good candidate");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x08;
    std::fs::write(&corrupt, &bytes).expect("writing the corrupt candidate");
    let mut ctrl = make_ctrl(gate);
    ctrl.request(corrupt.to_str().expect("utf8 path"), None)
        .expect("corrupt request accepted");
    let corrupt_code = outcome_code(&drive_swap(&mut ctrl, &mut fe, wave, &mut interruptions));
    if corrupt_code != "corrupt" {
        violations.push(format!(
            "corrupt candidate concluded {corrupt_code:?}, want \"corrupt\""
        ));
    }
    untouched(&mut violations);

    // 2. Wrong grid shape: trains fine on a coarser grid, shape gate refuses.
    let shape_path = dir.join("cand_shape.dotckpt");
    let misshapen = DotConfig {
        lg: 6,
        stage1_iters: 2,
        stage2_iters: 4,
        early_stop_samples: 2,
        early_stop_every: 2,
        ..DotConfig::tiny()
    };
    let data = &ctx.oracle.data;
    let coarse = Dataset::from_trips("coarse", data.trips.clone(), data.proj, misshapen.lg);
    Dot::train(misshapen, &coarse, |_| {})
        .save(&shape_path)
        .expect("saving the misshapen candidate");
    ctrl.request(shape_path.to_str().expect("utf8 path"), None)
        .expect("shape request accepted");
    let shape = drive_swap(&mut ctrl, &mut fe, wave, &mut interruptions);
    let shape_code = outcome_code(&shape);
    match &shape {
        Some(SwapOutcome::Rejected(SwapError::ShapeMismatch(detail))) => {
            if !detail.contains("lg=6") {
                violations.push(format!(
                    "shape refusal does not name the candidate's grid (lg=6): {detail}"
                ));
            }
        }
        _ => violations.push(format!(
            "misshapen candidate concluded {shape_code:?}, want \"shape_mismatch\""
        )),
    }
    untouched(&mut violations);

    // 3. Drift gate: an impossible gate (candidate must halve the serving
    // MAE) rejects even an identical model, with both MAEs reported.
    let mut strict = make_ctrl(SwapConfig {
        shadow_samples: 12,
        max_mae_ratio: 0.5,
        mae_slack_s: 0.0,
    });
    strict
        .request(good.to_str().expect("utf8 path"), None)
        .expect("drift request accepted");
    let drift = drive_swap(&mut strict, &mut fe, wave, &mut interruptions);
    let drift_code = outcome_code(&drift);
    match drift {
        Some(SwapOutcome::Rejected(SwapError::DriftFailed {
            cand_mae_s,
            serving_mae_s,
        })) => {
            let finite = cand_mae_s.is_finite() && serving_mae_s.is_finite();
            if !finite || cand_mae_s <= 0.5 * serving_mae_s {
                violations.push(format!(
                    "drift gate rejected on MAEs that do not fail it: \
                     candidate {cand_mae_s}s vs serving {serving_mae_s}s"
                ));
            }
        }
        _ => violations.push(format!(
            "drift-gated candidate concluded {drift_code:?}, want \"drift_failed\""
        )),
    }
    untouched(&mut violations);

    // 4. The good candidate, normal gate: a concurrent request must be
    // refused busy, then the swap promotes.
    ctrl.request(good.to_str().expect("utf8 path"), None)
        .expect("good request accepted");
    let busy_refused = matches!(
        ctrl.request(good.to_str().expect("utf8 path"), None),
        Err(SwapError::Busy)
    );
    if !busy_refused {
        violations.push("concurrent swap request was not refused busy".to_string());
    }
    let promote_code = outcome_code(&drive_swap(&mut ctrl, &mut fe, wave, &mut interruptions));
    let promoted_version = v1 + 1;
    if promote_code != format!("promoted v{promoted_version}") {
        violations.push(format!(
            "good candidate concluded {promote_code:?}, want promotion to v{promoted_version}"
        ));
    }
    if slot.version() != promoted_version || slot.swaps() != 1 {
        violations.push(format!(
            "promotion not installed: slot at v{} after {} swap(s)",
            slot.version(),
            slot.swaps()
        ));
    }
    if registry.current_version().ok().flatten() != Some(promoted_version) {
        violations.push("registry CURRENT does not point at the promoted version".to_string());
    }
    let versions = registry.versions().unwrap_or_default();
    if versions != [v1, promoted_version] {
        violations.push(format!(
            "registry holds versions {versions:?}, want [{v1}, {promoted_version}]"
        ));
    }
    let stats = ctrl.stats();
    if (stats.promoted, stats.rejected) != (1, 2) {
        violations.push(format!(
            "the first controller counted {} promoted / {} rejected, want 1 / 2",
            stats.promoted, stats.rejected
        ));
    }
    if interruptions > 0 {
        violations.push(format!(
            "{interruptions} request(s) interrupted while swaps were in flight"
        ));
    }
    // Post-swap serving comes from the new model and still answers.
    let after = unanswered(&mut fe, wave);
    if after > 0 {
        violations.push(format!(
            "{after} request(s) unanswered by the promoted model"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    DrillOutcome {
        violations,
        swap: Some(stats),
        candidates: Some(Candidates {
            corrupt_code,
            shape_code,
            drift_code,
            promote_code,
            busy_refused,
            serving_version: slot.version(),
            serving_swaps: slot.swaps(),
            interruptions,
        }),
        ..DrillOutcome::of_frontend(fe.snapshot())
    }
}
