//! The `blap-campaign` checkpoint: the campaign's configuration, its
//! resume cursor, the invariant summary (only under `--check-invariants`)
//! and the metrics merged so far. [`parse`] accepts only what [`render`]
//! writes for the campaign being resumed.

use blap::campaign::Campaign;
use blap_obs::json::{self, DecodeError, Fault, Layout};
use blap_obs::{Metrics, ViolationSummary};

/// Checkpoint document schema tag.
const SCHEMA: &str = "blap-campaign-checkpoint-v1";

/// A checkpoint read back by [`parse`].
#[derive(Debug)]
pub struct Checkpoint {
    /// The first shard not yet aggregated.
    pub next_shard: u64,
    /// The metrics merged over the shards before `next_shard`.
    pub metrics: Metrics,
    /// Their invariant summary, when the checkpoint carries one.
    pub invariants: Option<ViolationSummary>,
}

/// Renders the checkpoint, byte-deterministic at any worker count.
pub fn render(
    campaign: &Campaign,
    next_shard: u64,
    merged: &Metrics,
    invariants: Option<&ViolationSummary>,
) -> String {
    let mut out = String::with_capacity(4096);
    json::object(&mut out, Layout::Lines, |w| {
        w.str("schema", SCHEMA)
            .str("population", campaign.population.name);
        w.u64("trials", campaign.trials)
            .u64("shards", campaign.shard_count());
        w.u64("seed", campaign.seed).u64("next_shard", next_shard);
        if let Some(summary) = invariants {
            w.object("invariants", Layout::Compact, |w| summary.write_members(w));
        }
        w.object("metrics", Layout::Compact, |w| merged.write_members(w));
    });
    out.push('\n');
    out
}

/// Reads a checkpoint back, refusing a document whose configuration does
/// not match `campaign` (resuming under a different population, seed, or
/// shard shape would silently corrupt the aggregate) and any document
/// [`render`] would not have written. With `check_invariants`, the
/// checkpoint must carry an `invariants` summary: one written without the
/// flag skipped the checks for the shards it covers.
pub fn parse(
    text: &str,
    campaign: &Campaign,
    check_invariants: bool,
) -> Result<Checkpoint, DecodeError> {
    let value = json::parse(text)?;
    let doc = value.field();
    let invalid = |key: &str, message: String| DecodeError::new(key, Fault::Invalid(message));
    let schema = doc.str("schema")?;
    if schema != SCHEMA {
        return Err(invalid("schema", format!("{schema:?} is not {SCHEMA:?}")));
    }
    let (population, want) = (doc.str("population")?, campaign.population.name);
    if population != want {
        let message = format!("taken with {population:?}, this run uses {want:?}");
        return Err(invalid("population", message));
    }
    let shards = campaign.shard_count();
    for (key, want) in [
        ("trials", campaign.trials),
        ("shards", shards),
        ("seed", campaign.seed),
    ] {
        let got = doc.u64(key)?;
        if got != want {
            return Err(invalid(
                key,
                format!("taken with {got}, this run uses {want}"),
            ));
        }
    }
    let next_shard = doc.u64("next_shard")?;
    if next_shard > shards {
        return Err(invalid(
            "next_shard",
            format!("{next_shard} exceeds the {shards} shards"),
        ));
    }
    let invariants = (value.get("invariants").is_some())
        .then(|| ViolationSummary::from_field(&doc.get("invariants")?))
        .transpose()?;
    if check_invariants && invariants.is_none() {
        let message = "missing — the checkpoint was written without --check-invariants, so \
                       the covered shards were never checked; restart the campaign from \
                       scratch to check every trial";
        return Err(invalid("invariants", message.to_owned()));
    }
    let metrics = Metrics::from_field(&doc.get("metrics")?)?;
    // One check of the whole document covers the embedded bag and summary.
    value.check_rendering(&render(campaign, next_shard, &metrics, invariants.as_ref()))?;
    Ok(Checkpoint {
        next_shard,
        metrics,
        invariants,
    })
}
