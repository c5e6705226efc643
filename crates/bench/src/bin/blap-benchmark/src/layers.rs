//! Folds the program's wall-time `prof` scopes into layers named after the
//! crates that own them.
//!
//! The map is fixed and keyed by scope name (the last segment of a scope
//! path), so every path lands in exactly one layer. A scope the map does
//! not know is an error that names it: a new scope inside the program
//! must be given a layer here before the per-layer numbers mean anything.
//! `crypto.<kernel>` scopes need no entry; each kernel is its own layer.

use std::collections::BTreeMap;

use blap_obs::prof::Report;

/// Scope name → layer, for every non-crypto scope on the trial path.
pub const SCOPE_LAYERS: &[(&str, &str)] = &[
    // World build, judging and the metrics snapshot around each trial.
    ("trial", "core.trial"),
    // LMP dispatch and the authentication engine (SSP, legacy auth).
    ("lmp_deliver", "controller.lmp"),
    ("lmp_auth", "controller.lmp"),
    // The HCI command seam between host and controller.
    ("hci_cmd", "sim.hci_seam"),
    // Page resolution, delivery and timeout: the page race.
    ("page", "baseband.page"),
    // The scheduler's remaining dispatch families.
    ("timer", "sim.sched"),
    ("supervision", "sim.sched"),
    ("script", "sim.sched"),
    ("acl_deliver", "sim.sched"),
    ("inquiry", "sim.sched"),
    // Host pairing and the PLOC hold.
    ("host_pairing", "host.pairing"),
    ("ploc", "host.pairing"),
];

/// Wall time and entries attributed to one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Self time summed over the layer's scopes.
    pub self_ns: u64,
    /// Scope entries summed over the layer's scopes.
    pub calls: u64,
}

/// A profile folded into layers.
#[derive(Clone, Debug, Default)]
pub struct Fold {
    /// Layers by name.
    pub layers: BTreeMap<String, LayerTime>,
    /// Inclusive time of the top-level scopes (the `trial` scopes on every
    /// workload that simulates): what the layers' self times partition.
    pub total_ns: u64,
}

impl Fold {
    /// Self time summed over every layer.
    pub fn self_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }
}

/// The layer a scope belongs to.
pub fn layer_of(scope: &str) -> Result<&str, String> {
    if scope.starts_with("crypto.") {
        return Ok(scope);
    }
    SCOPE_LAYERS
        .iter()
        .find(|(name, _)| *name == scope)
        .map(|(_, layer)| *layer)
        .ok_or_else(|| format!("prof scope {scope:?} is in no layer; add it to SCOPE_LAYERS"))
}

/// Folds every scope path of `report` into its layer.
pub fn fold(report: &Report) -> Result<Fold, String> {
    let mut out = Fold {
        total_ns: report.total_ns(),
        ..Fold::default()
    };
    for (path, node) in report.walk() {
        let layer = layer_of(&node.name).map_err(|err| format!("{err} (path {path})"))?;
        let slot = out.layers.entry(layer.to_owned()).or_default();
        slot.self_ns += node.self_ns;
        slot.calls += node.calls;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_obs::prof::ReportNode;

    fn node(name: &str, calls: u64, total_ns: u64, children: Vec<ReportNode>) -> ReportNode {
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        ReportNode {
            name: name.to_owned(),
            calls,
            total_ns,
            self_ns: total_ns - child_total,
            alloc_count: 0,
            alloc_bytes: 0,
            children,
        }
    }

    /// The shape a campaign trial records: P-256 under LMP auth under LMP
    /// dispatch, HCI crossings under several dispatch families.
    fn synthetic() -> Report {
        let lmp_auth = node(
            "lmp_auth",
            40,
            9_000,
            vec![node("crypto.p256", 80, 8_500, vec![])],
        );
        let lmp = node(
            "lmp_deliver",
            300,
            9_800,
            vec![
                lmp_auth,
                node("hci_cmd", 50, 200, vec![]),
                node("ploc", 2, 20, vec![]),
            ],
        );
        let page = node("page", 20, 120, vec![node("hci_cmd", 10, 30, vec![])]);
        let trial = node(
            "trial",
            20,
            10_300,
            vec![
                lmp,
                page,
                node("timer", 60, 90, vec![]),
                node("script", 20, 40, vec![]),
            ],
        );
        Report {
            roots: vec![trial],
            pools: Vec::new(),
        }
    }

    #[test]
    fn every_path_lands_in_one_layer_and_self_times_partition_the_total() {
        let report = synthetic();
        let fold = fold(&report).expect("all scopes mapped");
        assert_eq!(fold.total_ns, 10_300);
        assert_eq!(
            fold.self_ns(),
            fold.total_ns,
            "self times partition the trial"
        );
        assert_eq!(
            fold.layers["crypto.p256"],
            LayerTime {
                self_ns: 8_500,
                calls: 80
            }
        );
        // lmp_deliver self (9_800 − 9_000 − 200 − 20) + lmp_auth self (500).
        assert_eq!(fold.layers["controller.lmp"].self_ns, 580 + 500);
        assert_eq!(
            fold.layers["sim.hci_seam"].calls, 60,
            "hci_cmd under two parents"
        );
        assert_eq!(fold.layers["sim.sched"].self_ns, 130);
        assert_eq!(fold.layers["host.pairing"].self_ns, 20);
    }

    #[test]
    fn unknown_scope_is_an_error_naming_it() {
        let mut report = synthetic();
        report.roots[0]
            .children
            .push(node("mystery_scope", 1, 0, vec![]));
        let err = fold(&report).expect_err("unmapped scope");
        assert!(err.contains("\"mystery_scope\""), "{err}");
        assert!(err.contains("trial;mystery_scope"), "{err}");
    }

    #[test]
    fn any_crypto_kernel_is_its_own_layer() {
        assert_eq!(layer_of("crypto.e1"), Ok("crypto.e1"));
        assert_eq!(layer_of("crypto.ccm_seal"), Ok("crypto.ccm_seal"));
        assert_eq!(layer_of("lmp_auth"), Ok("controller.lmp"));
    }
}
