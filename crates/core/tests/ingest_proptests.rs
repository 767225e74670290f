//! Property tests for the supervised ingest front, each at one-parameter
//! and fused spec width: under `OverloadPolicy::Block` with no faults
//! and no watchdog, the pipeline delivers events *bit-identical* to
//! synchronous `observe`; poison frames quarantined by panic isolation
//! behave exactly as if they had never been captured; and every run
//! reconciles exactly against the `EngineHealth` conservation law.

use proptest::prelude::*;
use wifiprint_core::{
    FusionSpec, IngestConfig, IngestPipeline, MultiConfig, MultiEngine, NetworkParameter,
};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

fn capture(dev: u64, t_us: u64, payload: usize, rate_idx: u8) -> CapturedFrame {
    let sta = MacAddr::from_index(dev + 1);
    let ap = MacAddr::from_index(99);
    let f = Frame::data_to_ds(sta, ap, ap, payload);
    CapturedFrame::from_frame(
        &f,
        Rate::ALL_BG[rate_idx as usize],
        Nanos::from_micros(t_us),
        -50,
    )
}

/// A capture-ordered stream with strictly increasing timestamps.
fn arb_ordered_stream() -> impl Strategy<Value = Vec<CapturedFrame>> {
    prop::collection::vec((0u64..4, 1u64..12_000, 60usize..800, 0u8..12), 30..120).prop_map(
        |specs| {
            let mut t_us = 0u64;
            specs
                .into_iter()
                .map(|(dev, gap, payload, rate)| {
                    t_us += gap;
                    capture(dev, t_us, payload, rate)
                })
                .collect()
        },
    )
}

/// The spec widths every property runs at: one parameter (the paper's
/// per-parameter tests) and all five fused.
fn specs() -> [FusionSpec; 2] {
    [FusionSpec::single(NetworkParameter::InterArrivalTime), FusionSpec::all_equal()]
}

fn build(spec: &FusionSpec) -> MultiEngine {
    let cfg = MultiConfig::default()
        .with_min_observations(3)
        .with_window(Nanos::from_millis(300));
    MultiEngine::builder()
        .spec(spec.clone())
        .config(cfg)
        .train_for(Nanos::from_millis(600))
        .build()
        .expect("valid engine configuration")
}

/// The synchronous baseline: observe + finish, events as a Debug string.
fn sync_events(spec: &FusionSpec, frames: &[CapturedFrame]) -> String {
    let mut engine = build(spec);
    let mut events = Vec::new();
    for f in frames {
        events.extend(engine.observe(f).expect("in-order frame"));
    }
    events.extend(engine.finish().expect("finish"));
    format!("{events:?}")
}

/// The chaos probe these tests arm: a zero-size frame is "poison".
fn is_poison(frame: &CapturedFrame) -> bool {
    frame.size == 0
}

/// The acceptance-criteria check at one spec width: the `Block`
/// pipeline's events equal synchronous `observe`, bit for bit, and its
/// ledger reconciles exactly.
fn assert_block_pipeline_matches_sync(
    spec: &FusionSpec,
    frames: &[CapturedFrame],
    capacity: usize,
) {
    let want = sync_events(spec, frames);
    let cfg = IngestConfig::default().with_capacity(capacity);
    let pipeline = IngestPipeline::spawn(build(spec), cfg).expect("spawn");
    for f in frames {
        pipeline.submit(f).expect("open pipeline");
    }
    let report = pipeline.finish().expect("terminates");
    prop_assert_eq!(format!("{:?}", report.events), want);
    prop_assert_eq!(report.health.frames_seen as usize, frames.len());
    prop_assert_eq!(report.health.frames_shed, 0);
    prop_assert_eq!(report.health.frames_quarantined, 0);
    prop_assert_eq!(report.delivered as usize, frames.len());
    prop_assert!(report.is_reconciled(), "health: {:?}", report.health);
}

proptest! {
    // The acceptance-criteria property: with `Block` (lossless
    // back-pressure), no faults and no watchdog, the supervised pipeline
    // is observationally indistinguishable from calling `observe`
    // synchronously — same events, bit for bit, and an exactly
    // reconciled ledger. Once at one-parameter width...
    #[test]
    fn block_pipeline_is_bit_identical_to_sync_observe_on_the_engine(
        frames in arb_ordered_stream(),
        capacity in 1usize..64,
    ) {
        let [single, _] = specs();
        assert_block_pipeline_matches_sync(&single, &frames, capacity);
    }

    // ...and once with all five parameters fused.
    #[test]
    fn block_pipeline_is_bit_identical_to_sync_observe_on_the_multi_engine(
        frames in arb_ordered_stream(),
        capacity in 1usize..64,
    ) {
        let [_, fused] = specs();
        assert_block_pipeline_matches_sync(&fused, &frames, capacity);
    }

    // Panic isolation as a stream property: a pipeline whose worker
    // panics on every poison frame delivers exactly the events of the
    // poison-free stream — a quarantined frame is indistinguishable from
    // one that was never captured — and the ledger still balances.
    #[test]
    fn quarantined_poison_frames_are_as_if_never_captured(
        frames in arb_ordered_stream(),
        poison_mask in any::<u64>(),
    ) {
        let mut frames = frames;
        let mut poisoned = 0u64;
        for (i, f) in frames.iter_mut().enumerate() {
            // A sparse pseudo-random subset (~1 in 8) turns poison.
            if (poison_mask >> (i % 64)) & 0x7 == 0x7 {
                f.size = 0;
                poisoned += 1;
            }
        }
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        for spec in specs() {
            let want = sync_events(&spec, &clean);
            let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
            let pipeline = IngestPipeline::spawn(build(&spec), cfg).expect("spawn");
            for f in &frames {
                pipeline.submit(f).expect("open pipeline");
            }
            let report = pipeline.finish().expect("survives every panic");
            prop_assert_eq!(format!("{:?}", report.events), want);
            prop_assert_eq!(report.health.frames_quarantined, poisoned);
            prop_assert_eq!(report.health.workers_restarted, poisoned);
            prop_assert_eq!(report.delivered as usize, clean.len());
            prop_assert!(report.is_reconciled(), "health: {:?}", report.health);
        }
    }
}
