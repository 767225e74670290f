//! `metropolis_linking`: a 10⁴-device rotation trail fed straight into
//! `RotationLinker::link` at the CI linking gate's 10⁴ operating point.
//! Decode, the engine and ingest are bypassed entirely.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use wifiprint_analysis::linking::metropolis_linker_config_10k;
use wifiprint_core::engine::linker::{LinkEvent, RotationLinker};
use wifiprint_core::{NetworkParameter, Signature};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_scenarios::{MetropolisScenario, RotationPolicy, RotationScenario, RotationTrail};

use crate::harness::{mac_word, Check, Pass, SetupStats};
use crate::stats::Digest;
use crate::trace::{Kind, Probe};

const DEVICES: usize = 10_000;
const SIGHTINGS: usize = 6;
/// The CI gate's 10⁴ floors (periodic rotation).
pub const PRECISION_FLOOR: f64 = 0.84;
pub const RECALL_FLOOR: f64 = 0.77;

type Sighting = (MacAddr, Nanos, [(NetworkParameter, Signature); 1]);

pub struct LinkingWorkload {
    trail: RotationTrail,
    /// The linker's inputs, built once so a pass clones nothing.
    sightings: Vec<Sighting>,
    setup: SetupStats,
    /// Decision digest of the warm-up pass; `None` during the warm-up.
    reference_digest: Option<u64>,
}

impl LinkingWorkload {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let mut trail = RotationScenario::new(
            MetropolisScenario::with_devices(seed, DEVICES),
            RotationPolicy::Periodic { period: 2 },
        )
        .with_sightings(SIGHTINGS)
        .generate();
        trail
            .reconcile()
            .map_err(|e| format!("rotation trail does not reconcile: {e}"))?;
        let sightings = trail
            .sightings
            .iter_mut()
            .map(|s| {
                let sig = std::mem::take(&mut s.signature);
                (s.mac, s.at, [(NetworkParameter::InterArrivalTime, sig)])
            })
            .collect();
        let setup = SetupStats {
            simulate_s: t.elapsed().as_secs_f64(),
            export_s: 0.0,
            capture_mb: 0.0,
            frames: 0,
        };
        let mut w = LinkingWorkload {
            trail,
            sightings,
            setup,
            reference_digest: None,
        };
        w.reference_digest = Some(w.pass(&mut crate::trace::Off)?.0.digest);
        Ok(w)
    }

    pub fn setup_stats(&self) -> SetupStats {
        self.setup
    }

    pub fn pass<P: Probe>(&self, probe: &mut P) -> Result<(Pass, Vec<Check>), String> {
        let started = Instant::now();
        let pass_mark = probe.mark();
        probe.open(Kind::Pass, pass_mark);
        let mut linker = RotationLinker::new(metropolis_linker_config_10k())
            .map_err(|e| format!("linker: {e}"))?;
        let mut decisions = Vec::with_capacity(self.sightings.len());
        let mut latencies = Vec::with_capacity(self.sightings.len());
        for (mac, at, sigs) in &self.sightings {
            let s = probe.mark();
            let t0 = Instant::now();
            let event = linker.link(*mac, *at, sigs);
            latencies.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            probe.span(Kind::Link, s);
            decisions.push(event);
        }
        probe.close();
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let stats = linker.stats();
        let score = self.score(&decisions);
        let mut checks = vec![
            Check::new(
                "LinkerStats::conserves",
                stats.conserves(),
                format!("{stats:?}"),
            ),
            Check::new(
                "linking precision above the 10^4 gate floor",
                score.precision >= PRECISION_FLOOR,
                format!("{:.3} (floor {PRECISION_FLOOR})", score.precision),
            ),
            Check::new(
                "linking recall above the 10^4 gate floor",
                score.recall >= RECALL_FLOOR,
                format!("{:.3} (floor {RECALL_FLOOR})", score.recall),
            ),
        ];
        if let Some(reference) = self.reference_digest {
            checks.push(Check::new(
                "decision digest matches the warm-up",
                score.digest == reference,
                format!("{:016x} vs {reference:016x}", score.digest),
            ));
        }
        let counters = vec![
            ("linker.sightings", stats.sightings as f64),
            ("linker.linked_by_mac", stats.linked_by_mac as f64),
            ("linker.linked_by_gallery", stats.linked_by_gallery as f64),
            ("linker.new_identities", stats.new_identities as f64),
            ("linker.ambiguous", stats.ambiguous as f64),
            ("linker.gate_bypassed", stats.gate_bypassed as f64),
            ("linker.shards_swept", stats.shards_swept as f64),
            ("linker.shards_pruned", stats.shards_pruned as f64),
            ("linker.pruned_fraction", stats.pruned_fraction()),
            ("linker.gallery_rows", stats.gallery_rows as f64),
        ];
        let pass = Pass {
            items: self.sightings.len() as u64,
            failed: 0,
            elapsed_ns,
            latencies_ns: latencies,
            digest: score.digest,
            counters,
        };
        Ok((pass, checks))
    }

    /// Scores the decisions against the trail's ledger exactly as the
    /// analysis crate's `evaluate_linking_trail` does, and digests them.
    fn score(&self, decisions: &[LinkEvent]) -> Score {
        let mut digest = Digest::default();
        let mut seen = BTreeSet::new();
        let mut founded_by: BTreeMap<u64, usize> = BTreeMap::new();
        let mut device_founded = BTreeSet::new();
        let (mut fresh_links, mut correct, mut linkable) = (0u64, 0u64, 0u64);
        for (s, event) in self.trail.sightings.iter().zip(decisions) {
            let fresh = seen.insert(s.mac);
            if fresh && device_founded.contains(&s.true_device) {
                linkable += 1;
            }
            digest.word(mac_word(s.mac));
            match event {
                LinkEvent::Linked { identity, .. } => {
                    digest.word(identity.0);
                    if fresh {
                        fresh_links += 1;
                        correct += u64::from(founded_by.get(&identity.0) == Some(&s.true_device));
                    }
                }
                LinkEvent::NewIdentity { identity, .. } => {
                    digest.word(identity.0 | 1 << 63);
                    founded_by.insert(identity.0, s.true_device);
                    device_founded.insert(s.true_device);
                }
                LinkEvent::Ambiguous { .. } => digest.word(u64::MAX),
            }
        }
        let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
        Score {
            precision: ratio(correct, fresh_links),
            recall: ratio(correct, linkable),
            digest: digest.value(),
        }
    }
}

struct Score {
    precision: f64,
    recall: f64,
    digest: u64,
}
