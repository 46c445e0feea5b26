//! Profiler `--json` documents are canonical: two runs of the same spec
//! emit byte-identical output with recursively sorted keys. (The `ppc`
//! goldens in `tests/ppc_cli.rs` rely on this.)

use kernels::runner::KernelSpec;
use kernels::workloads::{LockKind, LockWorkload};
use ppc_bench::observed::observed_json;
use sim_stats::Json;

/// A small fixed workload, built directly so the test runs fast no matter
/// what `PPC_SCALE` is set to.
fn small_lock(kind: LockKind) -> KernelSpec {
    KernelSpec::Lock(LockWorkload { total_acquires: 160, ..LockWorkload::paper(kind) })
}

/// Asserts every object in the tree has sorted keys.
fn assert_sorted(v: &Json, path: &str) {
    match v {
        Json::Obj(pairs) => {
            for w in pairs.windows(2) {
                assert!(w[0].0 < w[1].0, "{path}: key {:?} out of order (after {:?})", w[1].0, w[0].0);
            }
            for (k, v) in pairs {
                assert_sorted(v, &format!("{path}.{k}"));
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                assert_sorted(item, &format!("{path}[{i}]"));
            }
        }
        _ => {}
    }
}

#[test]
fn profiler_json_documents_are_canonical_and_byte_identical() {
    let kernel = small_lock(LockKind::Ticket);
    // Two independent runs of the same spec: the shared `--json` document
    // (`ppc report`, `lines`, `crit`, `net`) must render byte-identically
    // with recursively sorted keys.
    let first = observed_json("ticket-lock", 2, &kernel).render_pretty();
    let second = observed_json("ticket-lock", 2, &kernel).render_pretty();
    assert_eq!(first, second, "repeated runs must emit byte-identical JSON");
    assert_sorted(&Json::parse(&first).expect("document parses"), "$");
}
